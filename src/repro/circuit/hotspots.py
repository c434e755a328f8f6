"""Per-net power breakdown ("hotspot") reporting.

The macro-model abstracts a module to one number per event class; when a
module's power surprises, designers drop one level down and ask *which
nets* burn the charge.  :func:`net_power_breakdown` re-runs the reference
simulation while accumulating per-net charge, and
:func:`render_hotspots` prints the ranked report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .compiled import CompiledNetlist
from .netlist import Netlist
from .packed import (
    PACKED_AVAILABLE,
    n_words_for,
    pack_lanes,
    packed_functional_values,
    packed_unit_delay_transition,
)
from .power import ENGINES, resolve_auto
from .program import compile_program
from .simulate import functional_values, unit_delay_transition


@dataclass(frozen=True)
class NetHotspot:
    """Charge attribution for one net."""

    net: int
    name: str
    charge: float
    toggles: int
    share: float  # fraction of total module charge


def net_power_breakdown(
    netlist: Netlist | CompiledNetlist,
    input_bits: np.ndarray,
    top: Optional[int] = None,
    chunk_size: int = 2048,
    engine: str = "auto",
) -> List[NetHotspot]:
    """Per-net charge over a stimulus stream, ranked descending.

    Args:
        netlist: Module netlist (raw or compiled).
        input_bits: ``[n, m]`` input vector stream.
        top: Keep only the ``top`` hottest nets (all when None).
        chunk_size: Vectorization batch size.
        engine: ``"bool"``, ``"packed"``, ``"compiled"`` or ``"auto"``
            (resolved by :func:`~repro.circuit.power.resolve_auto`, the
            same rule :class:`~repro.circuit.power.PowerSimulator` uses).
            The report only needs per-net *totals*, so the packed and
            compiled engines never decode dense counts: each toggle
            bit-plane collapses straight through ``popcount``
            (:meth:`ToggleAccumulator.per_row_totals`; the compiled
            engine's program-order totals are permuted back to net
            order through ``row_of_net``).

    Returns:
        :class:`NetHotspot` list sorted by charge, highest first.
    """
    compiled = (
        netlist if isinstance(netlist, CompiledNetlist)
        else CompiledNetlist(netlist)
    )
    input_bits = np.asarray(input_bits, dtype=bool)
    n_cycles = input_bits.shape[0] - 1
    if n_cycles < 1:
        raise ValueError("need at least 2 patterns")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    engine = resolve_auto(engine, n_cycles)
    if engine in ("packed", "compiled") and not PACKED_AVAILABLE:
        raise ValueError(f"engine={engine!r} needs a little-endian host")
    program = compile_program(compiled) if engine == "compiled" else None
    toggles_total = np.zeros(compiled.n_nets, dtype=np.int64)
    for start in range(0, n_cycles, chunk_size):
        stop = min(start + chunk_size, n_cycles)
        if engine == "compiled":
            n_lanes = stop - start
            n_words = n_words_for(n_lanes)
            old_packed = pack_lanes(input_bits[start:stop].T, n_words)
            new_packed = pack_lanes(
                input_bits[start + 1 : stop + 1].T, n_words
            )
            settled = program.settle(old_packed, n_words)
            _, accumulator, _ = program.relax(settled, new_packed)
            row_totals = accumulator.per_row_totals(program.n_rows)
            toggles_total += row_totals[program.row_of_net]
            continue
        if engine == "packed":
            n_lanes = stop - start
            n_words = n_words_for(n_lanes)
            old_packed = pack_lanes(input_bits[start:stop].T, n_words)
            new_packed = pack_lanes(
                input_bits[start + 1 : stop + 1].T, n_words
            )
            settled = packed_functional_values(compiled, old_packed, n_words)
            _, accumulator = packed_unit_delay_transition(
                compiled, settled, new_packed
            )
            toggles_total += accumulator.per_row_totals(compiled.n_nets)
            continue
        settled = functional_values(compiled, input_bits[start:stop])
        _, toggles = unit_delay_transition(
            compiled, settled, input_bits[start + 1 : stop + 1]
        )
        toggles_total += toggles.sum(axis=1, dtype=np.int64)
    charge = toggles_total * compiled.net_caps
    total = float(charge.sum()) or 1.0
    order = np.argsort(charge)[::-1]
    if top is not None:
        order = order[:top]
    names = compiled.netlist.net_names
    return [
        NetHotspot(
            net=int(net),
            name=names.get(int(net), f"n{int(net)}"),
            charge=float(charge[net]),
            toggles=int(toggles_total[net]),
            share=float(charge[net]) / total,
        )
        for net in order
        if charge[net] > 0 or top is None
    ]


def render_hotspots(
    hotspots: Sequence[NetHotspot], title: str = "net power breakdown"
) -> str:
    """ASCII table of a hotspot report."""
    lines = [title]
    lines.append(f"  {'net':>6s} {'name':20s} {'charge':>12s} "
                 f"{'toggles':>9s} {'share':>7s}")
    for h in hotspots:
        lines.append(
            f"  {h.net:6d} {h.name[:20]:20s} {h.charge:12.1f} "
            f"{h.toggles:9d} {h.share * 100:6.2f}%"
        )
    return "\n".join(lines)

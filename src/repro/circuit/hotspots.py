"""Per-net power breakdown ("hotspot") reporting.

The macro-model abstracts a module to one number per event class; when a
module's power surprises, designers drop one level down and ask *which
nets* burn the charge.  :func:`net_power_breakdown` re-runs the reference
simulation while accumulating per-net charge, and
:func:`render_hotspots` prints the ranked report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .compiled import CompiledNetlist
from .netlist import Netlist
from .packed import PACKED_AVAILABLE, n_words_for, pack_lanes
from .program import compile_program


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
) -> List[NetHotspot]:
    """Per-net charge over a stimulus stream, ranked descending.

    Runs the compiled instruction tape.  The report only needs per-net
    *totals*, so it never decodes dense counts: each toggle bit-plane
    collapses straight through ``popcount``
    (:meth:`~repro.circuit.packed.ToggleAccumulator.per_row_totals`), and
    the program-order totals are permuted back to net order through
    ``row_of_net``.

    Args:
        netlist: Module netlist (raw or compiled).
        input_bits: ``[n, m]`` input vector stream.
        top: Keep only the ``top`` hottest nets (all when None).
        chunk_size: Vectorization batch size.

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
    if not PACKED_AVAILABLE:
        raise ValueError("the hotspot report needs a little-endian host")
    program = compile_program(compiled)
    toggles_total = np.zeros(compiled.n_nets, dtype=np.int64)
    for start in range(0, n_cycles, chunk_size):
        stop = min(start + chunk_size, n_cycles)
        n_words = n_words_for(stop - start)
        old_packed = pack_lanes(input_bits[start:stop].T, n_words)
        new_packed = pack_lanes(input_bits[start + 1 : stop + 1].T, n_words)
        settled = program.settle(old_packed, n_words)
        _, accumulator, _ = program.relax(settled, new_packed)
        row_totals = accumulator.per_row_totals(program.n_rows)
        toggles_total += row_totals[program.row_of_net]
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

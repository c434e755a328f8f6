"""Boolean logic simulation kernels.

These byte-per-value kernels are the reference the compiled instruction
tape (:mod:`repro.circuit.program`) is checked against
(:func:`repro.verify.reference_trace`), and the power simulator's
fallback on hosts without the packed lane layout.  Both share the
:class:`~repro.circuit.compiled.CompiledNetlist` representation:

* :func:`functional_values` — zero-delay levelized evaluation.  One pass over
  the level groups settles the whole circuit; used for golden functional
  checks and as the starting state of every power transition.
* :func:`unit_delay_transition` — synchronous unit-delay relaxation.  Starting
  from the settled state under vector ``u``, the inputs switch to ``v`` and
  every gate output at step ``t+1`` is recomputed from net values at step
  ``t`` until a fixpoint.  Every net value change along the way is a counted
  toggle, which makes glitches in arithmetic arrays visible — the key
  behaviour a transistor-level tool like PowerMill would expose and a
  zero-delay toggle count would hide.

Both kernels are vectorized across patterns/transitions: values live in a
``[n_nets, n_patterns]`` boolean matrix and each gate group is one numpy
expression.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .compiled import CompiledNetlist


def functional_values(
    compiled: CompiledNetlist, input_bits: np.ndarray
) -> np.ndarray:
    """Settle the circuit under each input vector (zero delay).

    Args:
        compiled: Compiled netlist.
        input_bits: ``[n_patterns, n_inputs]`` boolean matrix; column order
            matches ``netlist.inputs``.

    Returns:
        ``[n_nets, n_patterns]`` settled value matrix.
    """
    input_bits = np.asarray(input_bits, dtype=bool)
    if input_bits.ndim != 2 or input_bits.shape[1] != len(compiled.netlist.inputs):
        raise ValueError(
            f"input_bits must be [n_patterns, {len(compiled.netlist.inputs)}], "
            f"got {input_bits.shape}"
        )
    values = compiled.initial_values(input_bits.shape[0])
    values[compiled.input_nets] = input_bits.T
    for group in compiled.level_groups:
        values[group.outputs] = group.evaluate(values)
    return values


def evaluate_outputs(
    compiled: CompiledNetlist, input_bits: np.ndarray
) -> np.ndarray:
    """Return ``[n_patterns, n_outputs]`` output bits for the given inputs."""
    values = functional_values(compiled, input_bits)
    return values[compiled.output_nets].T


def unit_delay_transition(
    compiled: CompiledNetlist,
    settled: np.ndarray,
    new_inputs: np.ndarray,
    max_steps: Optional[int] = None,
    count_inputs: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Relax the circuit after an input transition, counting toggles.

    Args:
        compiled: Compiled netlist.
        settled: ``[n_nets, n_transitions]`` settled values under the old
            input vectors (will not be mutated).
        new_inputs: ``[n_transitions, n_inputs]`` new input vectors.
        max_steps: Safety bound on relaxation steps; defaults to
            ``4 * depth + 8`` (a synchronous acyclic network settles within
            ``depth`` steps, the slack is pure paranoia).
        count_inputs: Whether input-net transitions count as toggles (they
            charge the module's input pin capacitance, so the default is
            True, matching what a transistor-level tool measures at the
            module boundary).

    Returns:
        ``(final_values, toggle_counts)`` where ``toggle_counts`` is a
        ``[n_nets, n_transitions]`` uint32 matrix of per-net toggle counts
        for this transition (including the input application itself when
        ``count_inputs``).
    """
    if max_steps is None:
        max_steps = 4 * compiled.depth + 8
    new_inputs = np.asarray(new_inputs, dtype=bool)
    n_transitions = new_inputs.shape[0]
    if settled.shape != (compiled.n_nets, n_transitions):
        raise ValueError(
            f"settled must be [{compiled.n_nets}, {n_transitions}], "
            f"got {settled.shape}"
        )

    values = settled.copy()
    toggles = np.zeros((compiled.n_nets, n_transitions), dtype=np.uint32)

    input_nets = compiled.input_nets
    input_changed = values[input_nets] != new_inputs.T
    if count_inputs:
        toggles[input_nets] += input_changed.astype(np.uint32)
    values[input_nets] = new_inputs.T

    # Only gate-output rows can change after the input application, so the
    # relaxation stages, compares and accumulates over a compact
    # [n_gates, n_transitions] buffer instead of copying the full
    # [n_nets, n_transitions] matrix every step (inputs and constants are
    # dead weight in that copy).
    gate_rows = compiled.gate_output_nets
    staged = np.empty((len(gate_rows), n_transitions), dtype=bool)
    for _ in range(max_steps):
        # Synchronous step: every gate reads the current snapshot, then all
        # outputs update at once (stage all reads before any write).
        for group, positions in zip(
            compiled.type_groups, compiled.type_group_positions
        ):
            staged[positions] = group.evaluate(values)
        changed = staged != values[gate_rows]
        if not changed.any():
            break
        toggles[gate_rows] += changed.astype(np.uint32)
        values[gate_rows] = staged
    else:
        raise RuntimeError(
            f"unit-delay simulation of {compiled.netlist.name} did not settle "
            f"within {max_steps} steps"
        )
    return values, toggles


def zero_delay_toggles(
    compiled: CompiledNetlist,
    settled_old: np.ndarray,
    settled_new: np.ndarray,
) -> np.ndarray:
    """Toggle counts ignoring glitches (ablation reference).

    Each net toggles at most once: iff its settled value differs between the
    two input vectors.
    """
    return (settled_old != settled_new).astype(np.uint32)

"""The reference power trace: the boolean kernels behind the production
chunk loop.

:class:`~repro.circuit.power.PowerSimulator` runs the compiled
instruction tape.  The byte-per-value boolean kernels of
:mod:`repro.circuit.simulate` are an independent implementation of the
same unit-delay semantics, so the verify layer keeps them as the
reference the tape is checked against.  :func:`reference_trace` runs them
through the simulator's own chunk loop and charge accounting — there is
one copy of the accounting, not two — so at equal chunk size the two
traces must agree bit for bit, ``charge`` included.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..circuit.compiled import CompiledNetlist
from ..circuit.netlist import Netlist
from ..circuit.power import PowerSimulator, PowerTrace


def reference_trace(
    netlist: Netlist | CompiledNetlist,
    bits: np.ndarray,
    *,
    glitch_aware: bool = True,
    glitch_weight: float = 1.0,
    chunk_size: Optional[int] = None,
) -> PowerTrace:
    """Per-cycle charge of ``bits`` on the boolean reference kernels.

    Args:
        netlist: Module netlist (raw or compiled).
        bits: ``[n_patterns, n_inputs]`` input vector stream.
        glitch_aware, glitch_weight, chunk_size: As for
            :class:`~repro.circuit.power.PowerSimulator`.

    Returns:
        The :class:`~repro.circuit.power.PowerTrace`; the simulator's
        ``last_stats.engine`` for this run is ``"bool"``.
    """
    simulator = PowerSimulator(
        netlist, glitch_aware=glitch_aware, glitch_weight=glitch_weight,
        chunk_size=chunk_size,
    )
    return simulator._run(bits, "bool")

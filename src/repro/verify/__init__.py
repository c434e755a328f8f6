"""Differential verification subsystem.

Four layers (see docs/VERIFICATION.md):

* :mod:`repro.verify.oracles` — pure, slow, obviously-correct reference
  implementations of the paper's equations and an independent per-gate
  toggle counter;
* :mod:`repro.verify.reference` — :func:`reference_trace`, the boolean
  simulation kernels run through the production chunk loop and charge
  accounting;
* :mod:`repro.verify.differential` — the seeded fuzzer that runs the
  production simulator against the reference, against the oracle, and
  through a battery of metamorphic relations;
* :mod:`repro.verify.shrink` — the delta-debugging minimizer and repro
  artifact writer.
"""

from .differential import (
    CASE_CHECKS,
    DEFAULT_KINDS,
    SWAP_SYMMETRIC_KINDS,
    FuzzCase,
    FuzzReport,
    Mismatch,
    check_case,
    make_stream,
    random_case,
    run_fuzz,
)
from .oracles import (
    OracleTrace,
    VerificationError,
    monte_carlo_dbt_hd,
    oracle_binomial_pmf,
    oracle_class_averages,
    oracle_class_counts,
    oracle_dbt_convolution,
    oracle_net_caps,
    oracle_power_trace,
    verify_trace_prefix,
)
from .reference import reference_trace
from .shrink import ShrinkResult, shrink_case, write_repro

__all__ = [
    "CASE_CHECKS",
    "DEFAULT_KINDS",
    "SWAP_SYMMETRIC_KINDS",
    "FuzzCase",
    "FuzzReport",
    "Mismatch",
    "OracleTrace",
    "ShrinkResult",
    "VerificationError",
    "check_case",
    "make_stream",
    "monte_carlo_dbt_hd",
    "oracle_binomial_pmf",
    "oracle_class_averages",
    "oracle_class_counts",
    "oracle_dbt_convolution",
    "oracle_net_caps",
    "oracle_power_trace",
    "random_case",
    "reference_trace",
    "run_fuzz",
    "shrink_case",
    "verify_trace_prefix",
    "write_repro",
]

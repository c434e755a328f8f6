"""Oracle identities: every paper-equation reference model must agree
with the production path at tight tolerance (1e-9 unless an identity is
exact, in which case exactness is asserted).
"""

import itertools

import numpy as np
import pytest

from repro.circuit.power import PowerSimulator
from repro.circuit.simulate import functional_values, unit_delay_transition
from repro.circuit.technology import GATE_TYPES
from repro.core.accumulator import ClassAccumulator
from repro.core.characterize import characterize_module, random_input_bits
from repro.core.distribution import (
    binomial_distribution,
    distribution_mean,
    hd_distribution_from_dbt,
)
from repro.core.events import classify_transitions
from repro.core.hd_model import HdPowerModel
from repro.core.regression import fit_width_regression
from repro.modules.library import make_module
from repro.stats.dbt import DbtModel
from repro.verify import reference_trace
from repro.verify.oracles import (
    VerificationError,
    accumulator_partition_residual,
    enhanced_refinement_residual,
    lstsq_orthogonality_residual,
    monte_carlo_dbt_hd,
    oracle_binomial_pmf,
    oracle_class_averages,
    oracle_class_counts,
    oracle_dbt_convolution,
    oracle_net_caps,
    oracle_power_trace,
    regression_orthogonality_residual,
    verify_trace_prefix,
)
from repro.verify.oracles import _ORACLE_GATES

TOL = 1e-9


def _stream(module, n_patterns, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 2, size=(n_patterns, module.input_bits)
    ).astype(bool)


# ----------------------------------------------------------------------
# Gate semantics and capacitance
# ----------------------------------------------------------------------
def test_oracle_gate_table_matches_technology():
    """The independently restated truth tables agree with the library's
    vectorized gate functions on every input combination."""
    assert set(_ORACLE_GATES) == set(GATE_TYPES)
    for name, gtype in GATE_TYPES.items():
        oracle_fn = _ORACLE_GATES[name]
        for combo in itertools.product([0, 1], repeat=gtype.n_inputs):
            args = [np.array([bool(b)]) for b in combo]
            expected = int(np.asarray(gtype.func(*args))[0])
            assert oracle_fn(*combo) == expected, (name, combo)


@pytest.mark.parametrize("kind", ["ripple_adder", "csa_multiplier", "alu"])
def test_oracle_net_caps_match_compiled(kind):
    module = make_module(kind, 4)
    np.testing.assert_allclose(
        oracle_net_caps(module.netlist),
        module.compiled.net_caps,
        rtol=1e-12,
        atol=0.0,
    )


# ----------------------------------------------------------------------
# The independent dense toggle counter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["ripple_adder", "cla_adder", "alu"])
def test_oracle_trace_matches_engine(kind):
    module = make_module(kind, 4)
    bits = _stream(module, 25, seed=1)
    oracle = oracle_power_trace(module.netlist, bits)
    for trace in (
        reference_trace(module.compiled, bits),
        PowerSimulator(module.compiled).simulate(bits),
    ):
        np.testing.assert_array_equal(
            oracle.total_toggles, trace.total_toggles
        )
        np.testing.assert_allclose(
            oracle.charge, trace.charge, rtol=TOL, atol=0.0
        )
    # Dense per-net counts against the boolean kernel.
    settled = functional_values(module.compiled, bits[:-1])
    _, dense = unit_delay_transition(module.compiled, settled, bits[1:])
    np.testing.assert_array_equal(
        oracle.per_net_toggles, dense.astype(np.int64)
    )


def test_oracle_trace_zero_delay():
    module = make_module("csa_multiplier", 3)
    bits = _stream(module, 20, seed=2)
    oracle = oracle_power_trace(module.netlist, bits, glitch_aware=False)
    for trace in (
        reference_trace(module.compiled, bits, glitch_aware=False),
        PowerSimulator(module.compiled, glitch_aware=False).simulate(bits),
    ):
        np.testing.assert_array_equal(
            oracle.total_toggles, trace.total_toggles
        )
        np.testing.assert_allclose(
            oracle.charge, trace.charge, rtol=TOL, atol=0.0
        )


def test_oracle_trace_glitch_weight():
    module = make_module("ripple_adder", 4)
    bits = _stream(module, 20, seed=3)
    oracle = oracle_power_trace(module.netlist, bits, glitch_weight=0.25)
    for trace in (
        reference_trace(module.compiled, bits, glitch_weight=0.25),
        PowerSimulator(module.compiled, glitch_weight=0.25).simulate(bits),
    ):
        np.testing.assert_allclose(
            oracle.charge, trace.charge, rtol=TOL, atol=0.0
        )


def test_verify_trace_prefix_accepts_and_rejects():
    module = make_module("ripple_adder", 4)
    bits = _stream(module, 40, seed=4)
    trace = PowerSimulator(module.compiled).simulate(bits)
    assert verify_trace_prefix(module.netlist, bits, trace, prefix=10) == 10
    # Tamper with one toggle count inside the verified prefix.
    trace.total_toggles[3] += 1
    with pytest.raises(VerificationError, match="toggle count mismatch"):
        verify_trace_prefix(module.netlist, bits, trace, prefix=10)


# ----------------------------------------------------------------------
# Eq. 4 — class partition and per-class averaging
# ----------------------------------------------------------------------
def test_class_partition_identity():
    rng = np.random.default_rng(5)
    width = 8
    hd = rng.integers(0, width + 1, size=500)
    counts = oracle_class_counts(hd, width)
    assert counts.sum() == len(hd)  # sigma |E_i| = n_transitions
    np.testing.assert_array_equal(
        counts, np.bincount(hd, minlength=width + 1)
    )
    with pytest.raises(ValueError, match="out of range"):
        oracle_class_counts([width + 1], width)


def test_class_averages_match_fitted_model():
    module = make_module("ripple_adder", 3)
    bits = random_input_bits(400, module.input_bits, seed=6)
    trace = PowerSimulator(module.compiled).simulate(bits)
    events = classify_transitions(bits)
    model = HdPowerModel.fit(
        events.hd, trace.charge, module.input_bits, name="ra3"
    )
    oracle = oracle_class_averages(events.hd, trace.charge, module.input_bits)
    observed = np.nonzero(model.counts)[0]
    # p_0 is pinned to 0 by definition; every other observed class must be
    # the plain per-class mean.
    for i in observed:
        if i == 0:
            continue
        assert abs(oracle[i] - model.coefficients[i]) <= TOL * max(
            1.0, abs(oracle[i])
        )


def test_accumulator_partition_residual():
    module = make_module("cla_adder", 3)
    bits = random_input_bits(300, module.input_bits, seed=7)
    trace = PowerSimulator(module.compiled).simulate(bits)
    events = classify_transitions(bits)
    accumulator = ClassAccumulator(module.input_bits).update(
        events.hd, events.stable_zeros, trace.charge
    )
    assert accumulator_partition_residual(
        accumulator, events, trace.charge
    ) <= TOL
    # A corrupted count matrix must raise, not average away.
    accumulator.counts[1, 0] += 1
    with pytest.raises(VerificationError):
        accumulator_partition_residual(accumulator, events, trace.charge)


# ----------------------------------------------------------------------
# Eq. 12-18 — DBT Hd distribution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 5, 12, 24])
def test_binomial_pascal_matches_closed_form(n):
    pmf = oracle_binomial_pmf(n)
    assert abs(pmf.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(
        pmf, binomial_distribution(n), rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize(
    "n_rand,n_sign,t_sign",
    [(6, 2, 0.3), (0, 4, 0.9), (8, 0, 0.0), (3, 5, 0.5), (10, 6, 0.05)],
)
def test_dbt_convolution_matches_eq18(n_rand, n_sign, t_sign):
    """Explicit O(n^2) convolution == the production Eq. 18 shift-add."""
    conv = oracle_dbt_convolution(n_rand, n_sign, t_sign)
    assert abs(conv.sum() - 1.0) <= 1e-12  # sigma p(Hd=i) = 1
    model = DbtModel(
        width=n_rand + n_sign, bp0=float(n_rand), bp1=float(n_rand),
        t_sign=t_sign, n_rand=n_rand, n_sign=n_sign,
    )
    np.testing.assert_allclose(
        conv, hd_distribution_from_dbt(model), rtol=1e-12, atol=1e-15
    )
    # Eq. 11 mean: n_rand/2 + n_sign * t_sign.
    expected_mean = n_rand / 2.0 + n_sign * t_sign
    assert abs(distribution_mean(conv) - expected_mean) <= TOL


def test_dbt_convolution_matches_monte_carlo():
    conv = oracle_dbt_convolution(6, 2, 0.3)
    mc = monte_carlo_dbt_hd(6, 2, 0.3, n_samples=200_000, seed=0)
    # Statistical tolerance: ~4 sigma of a binomial proportion at n=200k.
    assert np.abs(conv - mc).max() <= 4.5 / np.sqrt(200_000)


# ----------------------------------------------------------------------
# Eq. 6-10 — least-squares residual orthogonality
# ----------------------------------------------------------------------
def test_lstsq_orthogonality_random_system():
    rng = np.random.default_rng(8)
    design = rng.normal(size=(12, 3))
    targets = rng.normal(size=12)
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    assert lstsq_orthogonality_residual(design, targets, solution) <= TOL
    # A perturbed solution is not a least-squares fit.
    assert lstsq_orthogonality_residual(
        design, targets, solution + 0.1
    ) > 1e-3


def test_lstsq_orthogonality_rank_deficient():
    """numpy's minimum-norm solution still satisfies the normal equations."""
    rng = np.random.default_rng(9)
    base = rng.normal(size=(8, 2))
    design = np.column_stack([base, base[:, 0] + base[:, 1]])  # rank 2
    targets = rng.normal(size=8)
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    assert lstsq_orthogonality_residual(design, targets, solution) <= TOL


def test_width_regression_orthogonality():
    prototypes = {}
    for width in (2, 3, 4):
        module = make_module("ripple_adder", width)
        prototypes[width] = characterize_module(
            module, n_patterns=400, seed=10 + width
        ).model
    regression = fit_width_regression("ripple_adder", prototypes)
    assert regression_orthogonality_residual(
        "ripple_adder", prototypes, regression
    ) <= TOL


# ----------------------------------------------------------------------
# Enhanced-model refinement consistency
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["ripple_adder", "csa_multiplier"])
def test_enhanced_refinement_consistency(kind):
    module = make_module(kind, 3)
    result = characterize_module(
        module, n_patterns=600, seed=11, enhanced=True
    )
    assert result.enhanced is not None
    assert enhanced_refinement_residual(result.enhanced) <= TOL

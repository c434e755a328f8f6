"""Incremental class accumulator: parity with concatenate-and-refit."""

import numpy as np
import pytest

from repro.circuit.power import PowerSimulator
from repro.core import ClassAccumulator, classify_transitions
from repro.core.characterize import mixed_input_bits, uniform_hd_input_bits
from repro.core.enhanced import EnhancedHdModel
from repro.core.hd_model import HdPowerModel
from repro.modules import make_module


def _batched_stream(kind, width, n_batches=5, batch=300, seed=0):
    """Simulate a batched characterization stream, returning both the
    accumulated statistics and the full concatenated arrays."""
    module = make_module(kind, width)
    simulator = PowerSimulator(module.compiled)
    acc = ClassAccumulator(module.input_bits)
    all_hd, all_zeros, all_charge = [], [], []
    for b in range(n_batches):
        bits = mixed_input_bits(batch, module.input_bits, seed=seed + b)
        trace = simulator.simulate(bits)
        events = classify_transitions(bits)
        acc.update(events.hd, events.stable_zeros, trace.charge)
        all_hd.append(events.hd)
        all_zeros.append(events.stable_zeros)
        all_charge.append(trace.charge)
    return (
        module,
        acc,
        np.concatenate(all_hd),
        np.concatenate(all_zeros),
        np.concatenate(all_charge),
    )


def test_basic_fit_parity_with_refit():
    """Acceptance regression: the incremental fit must reproduce the
    concatenate-and-refit result — exact class counts, coefficients equal
    within 1e-12."""
    module, acc, hd, zeros, charge = _batched_stream("ripple_adder", 4)
    reference = HdPowerModel.fit(hd, charge, module.input_bits)
    incremental = HdPowerModel.from_accumulator(acc)
    assert np.array_equal(incremental.counts, reference.counts)
    np.testing.assert_allclose(
        incremental.coefficients, reference.coefficients,
        rtol=1e-12, atol=0.0,
    )
    # Standard errors reduce from sums-of-squares: same within fp noise.
    mask = ~np.isnan(reference.standard_errors)
    assert np.array_equal(mask, ~np.isnan(incremental.standard_errors))
    np.testing.assert_allclose(
        incremental.standard_errors[mask], reference.standard_errors[mask],
        rtol=1e-6,
    )


def test_enhanced_fit_parity_with_refit():
    module, acc, hd, zeros, charge = _batched_stream("csa_multiplier", 4)
    for cluster_size in (1, 3):
        reference = EnhancedHdModel.fit(
            hd, zeros, charge, module.input_bits, cluster_size=cluster_size
        )
        incremental = EnhancedHdModel.from_accumulator(
            acc, cluster_size=cluster_size
        )
        assert incremental.counts == reference.counts
        assert set(incremental.coefficients) == set(reference.coefficients)
        for key, value in reference.coefficients.items():
            assert incremental.coefficients[key] == pytest.approx(
                value, rel=1e-12
            )


def test_accumulator_average_charge_matches_stream():
    module, acc, hd, zeros, charge = _batched_stream("ripple_adder", 3)
    assert acc.n_samples == len(charge)
    assert acc.average_charge == pytest.approx(charge.mean(), rel=1e-12)


def test_merge_equals_single_accumulation():
    """Two half-stream accumulators merged == one full-stream accumulator
    (the parallel-worker reduction path)."""
    width = 8
    rng = np.random.default_rng(1)
    hd = rng.integers(0, width + 1, size=2000)
    zeros = np.array([rng.integers(0, width - h + 1) for h in hd])
    charge = rng.random(2000) * 30

    whole = ClassAccumulator(width).update(hd, zeros, charge)
    left = ClassAccumulator(width).update(hd[:1000], zeros[:1000], charge[:1000])
    right = ClassAccumulator(width).update(hd[1000:], zeros[1000:], charge[1000:])
    merged = left.merge(right)
    assert np.array_equal(merged.counts, whole.counts)
    np.testing.assert_allclose(merged.sums, whole.sums, rtol=1e-12)
    model_a = HdPowerModel.from_accumulator(merged)
    model_b = HdPowerModel.from_accumulator(whole)
    np.testing.assert_allclose(
        model_a.coefficients, model_b.coefficients, rtol=1e-12
    )


def test_merge_width_mismatch_rejected():
    with pytest.raises(ValueError, match="widths"):
        ClassAccumulator(4).merge(ClassAccumulator(5))


def test_serialization_round_trip():
    width = 6
    rng = np.random.default_rng(2)
    hd = rng.integers(0, width + 1, size=500)
    zeros = np.array([rng.integers(0, width - h + 1) for h in hd])
    acc = ClassAccumulator(width).update(hd, zeros, rng.random(500) * 10)
    # Through the JSON wire format, as the model cache stores it.
    import json

    clone = ClassAccumulator.restore(json.loads(json.dumps(acc.snapshot())))
    assert clone == acc


def test_update_validation():
    acc = ClassAccumulator(4)
    with pytest.raises(ValueError, match="align"):
        acc.update(np.array([1, 2]), np.array([0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="out of range"):
        acc.update(np.array([5]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError, match="exceeds"):
        acc.update(np.array([2]), np.array([3]), np.array([1.0]))
    with pytest.raises(ValueError, match="width"):
        ClassAccumulator(0)


def test_empty_update_is_noop():
    acc = ClassAccumulator(4)
    acc.update(np.array([], dtype=int), np.array([], dtype=int), np.array([]))
    assert acc.n_samples == 0
    assert acc.average_charge == 0.0
    with pytest.raises(ValueError, match="empty"):
        HdPowerModel.from_accumulator(acc)


def test_characterize_module_uses_accumulator():
    """The driver exposes its accumulator, and refitting from it
    reproduces the returned models."""
    from repro.core import characterize_module

    module = make_module("ripple_adder", 4)
    result = characterize_module(
        module, n_patterns=600, seed=5, enhanced=True
    )
    assert result.accumulator is not None
    assert result.accumulator.n_samples >= 600
    refit = HdPowerModel.from_accumulator(
        result.accumulator, name=result.model.name
    )
    np.testing.assert_array_equal(
        refit.coefficients, result.model.coefficients
    )
    refit_enh = EnhancedHdModel.from_accumulator(
        result.accumulator, name=result.model.name
    )
    assert refit_enh.coefficients == result.enhanced.coefficients

"""Characterization driver and stimulus generators."""

from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.core import (
    characterize_module,
    classify_transitions,
    corner_input_bits,
    mixed_input_bits,
    random_input_bits,
)
from repro.core.characterize import uniform_hd_input_bits
from repro.modules import make_module


def test_random_bits_shape_and_determinism():
    a = random_input_bits(100, 8, seed=1)
    b = random_input_bits(100, 8, seed=1)
    assert a.shape == (100, 8)
    assert np.array_equal(a, b)
    assert a.dtype == bool


def test_uniform_hd_covers_all_classes():
    bits = uniform_hd_input_bits(3000, 16, seed=2)
    hd = (bits[1:] != bits[:-1]).sum(axis=1)
    counts = np.bincount(hd, minlength=17)
    assert (counts[1:] > 0).all()
    # roughly uniform over 1..16
    assert counts[1:].min() > 3000 / 16 * 0.5


def test_uniform_hd_marginal_is_uniform():
    bits = uniform_hd_input_bits(6000, 12, seed=3)
    ones = bits.mean(axis=0)
    assert np.allclose(ones, 0.5, atol=0.05)


def test_corner_bits_pair_structure():
    bits = corner_input_bits(200, 10, seed=4)
    # even rows u, odd rows v with all non-switching bits equal-fill
    for j in range(0, 198, 2):
        u, v = bits[j], bits[j + 1]
        diff = u != v
        assert diff.any()
        stable = ~diff
        if stable.any():
            values = u[stable]
            # fill styles: all-zero, all-one or random; at least check
            # stability
            assert np.array_equal(u[stable], v[stable])


def test_corner_bits_produce_extreme_zero_subclasses():
    bits = corner_input_bits(600, 8, seed=5)
    events = classify_transitions(bits)
    extremes = ((events.stable_zeros == 8 - events.hd) & (events.hd < 8)).sum()
    assert extremes > 50


def test_mixed_bits_compose():
    bits = mixed_input_bits(400, 8, seed=6, corner_fraction=0.25)
    assert bits.shape == (400, 8)


# ----------------------------------------------------------------------
# Distribution equivalence.  The generators promise a distribution, not
# a particular RNG stream, so these tests pin the distribution.  Fixed
# seeds make each chi-square test deterministic; the 1e-3 level only
# guards against a wrong distribution.
# ----------------------------------------------------------------------
CHI2_ALPHA = 1e-3


def _assert_uniform(counts):
    counts = np.asarray(counts)
    assert counts.sum() > 20 * len(counts), "too few samples per cell"
    assert chisquare(counts).pvalue > CHI2_ALPHA, counts


def _subset_counts(masks, width, size):
    """How often each ``size``-subset of ``width`` bits occurs in ``masks``."""
    index = {c: k for k, c in enumerate(combinations(range(width), size))}
    counts = np.zeros(len(index), dtype=np.int64)
    for row in masks:
        counts[index[tuple(np.flatnonzero(row))]] += 1
    return counts


@pytest.mark.parametrize("width,seed", [(1, 0), (4, 1), (9, 2), (16, 3)])
def test_uniform_hd_marginal_hd_is_uniform(width, seed):
    bits = uniform_hd_input_bits(20 * 50 * width + 1, width, seed=seed)
    hd = (bits[1:] != bits[:-1]).sum(axis=1)
    assert hd.min() >= 1 and hd.max() <= width
    if width > 1:
        _assert_uniform(np.bincount(hd, minlength=width + 1)[1:])


@pytest.mark.parametrize("width,hd,seed", [
    (5, 2, 10), (6, 3, 11), (8, 1, 12), (8, 7, 13), (7, 4, 14),
])
def test_uniform_hd_toggled_positions_uniform_given_hd(width, hd, seed):
    bits = uniform_hd_input_bits(40_000, width, seed=seed)
    toggles = bits[1:] != bits[:-1]
    chosen = toggles[toggles.sum(axis=1) == hd]
    _assert_uniform(_subset_counts(chosen, width, hd))


def test_uniform_hd_start_vector_is_uniform():
    starts = np.array([
        uniform_hd_input_bits(1, 6, seed=s)[0] for s in range(3000)
    ])
    _assert_uniform(np.bincount(np.packbits(starts, axis=1)[:, 0] >> 2,
                                minlength=64))


def _corner_pairs(n_pairs, width, seed):
    bits = corner_input_bits(2 * n_pairs, width, seed=seed)
    return bits[0::2], bits[1::2]


@pytest.mark.parametrize("width,seed", [(1, 0), (3, 1), (8, 2), (13, 3)])
def test_corner_pairs_differ_exactly_on_a_uniform_support(width, seed):
    u, v = _corner_pairs(40 * width + 60, width, seed)
    support = u != v
    size = support.sum(axis=1)
    assert size.min() >= 1 and size.max() <= width
    if width > 1:
        _assert_uniform(np.bincount(size, minlength=width + 1)[1:])


@pytest.mark.parametrize("width,size,seed", [(5, 2, 4), (6, 3, 5)])
def test_corner_support_uniform_given_size(width, size, seed):
    u, v = _corner_pairs(30_000, width, seed)
    support = u != v
    _assert_uniform(
        _subset_counts(support[support.sum(axis=1) == size], width, size)
    )


def test_corner_fill_cycles_zeros_ones_random():
    width = 10
    u, v = _corner_pairs(3000, width, seed=6)
    support = u != v
    style = np.arange(len(u)) % 3
    outside = ~support
    assert not u[outside & (style == 0)[:, None]].any()
    assert u[outside & (style == 1)[:, None]].all()
    random_fill = u[outside & (style == 2)[:, None]]
    _assert_uniform(np.bincount(random_fill, minlength=2))
    # u is random on the support whatever the fill style.
    for k in range(3):
        on_support = u[support & (style == k)[:, None]]
        _assert_uniform(np.bincount(on_support, minlength=2))


def test_characterize_small_module():
    module = make_module("ripple_adder", 4)
    result = characterize_module(module, n_patterns=1500, seed=0)
    model = result.model
    assert model.width == 8
    assert model.coefficients[0] == 0.0
    # Monotone increasing overall
    assert model.coefficients[-1] > model.coefficients[1]
    assert result.n_patterns >= 1500
    assert result.average_charge > 0


def test_characterize_convergence_flag():
    module = make_module("ripple_adder", 4)
    relaxed = characterize_module(
        module, n_patterns=1500, seed=0, tolerance=0.5
    )
    assert relaxed.converged
    strict = characterize_module(
        module, n_patterns=500, seed=0, tolerance=1e-9, max_patterns=1000
    )
    assert not strict.converged
    assert strict.n_patterns == 1000


def test_characterize_enhanced():
    module = make_module("ripple_adder", 4)
    result = characterize_module(
        module, n_patterns=1500, seed=0, enhanced=True
    )
    assert result.enhanced is not None
    assert result.enhanced.n_parameters > 8


def test_characterize_cluster_size():
    module = make_module("ripple_adder", 4)
    fine = characterize_module(
        module, n_patterns=1500, seed=0, enhanced=True, cluster_size=1
    )
    coarse = characterize_module(
        module, n_patterns=1500, seed=0, enhanced=True, cluster_size=4
    )
    assert coarse.enhanced.n_parameters < fine.enhanced.n_parameters


def test_characterize_stimulus_validation():
    module = make_module("ripple_adder", 4)
    with pytest.raises(ValueError, match="unknown stimulus"):
        characterize_module(module, stimulus="fancy")


def test_characterize_deterministic():
    module = make_module("ripple_adder", 4)
    a = characterize_module(module, n_patterns=800, seed=3)
    b = characterize_module(module, n_patterns=800, seed=3)
    assert np.allclose(a.model.coefficients, b.model.coefficients)


def test_characterize_zero_delay_reference():
    module = make_module("csa_multiplier", 4)
    glitchy = characterize_module(module, n_patterns=1200, seed=1)
    clean = characterize_module(
        module, n_patterns=1200, seed=1, glitch_aware=False
    )
    assert glitchy.model.coefficients[4:].sum() > clean.model.coefficients[4:].sum()


def test_random_characterization_misses_low_classes_on_wide_modules():
    """Documents why uniform_hd is the default: plain random never sees
    Hd=1 on a 24-bit-input module."""
    module = make_module("ripple_adder", 12)
    result = characterize_module(
        module, n_patterns=1500, seed=2, stimulus="random",
        max_patterns=1500,
    )
    assert result.model.counts[1] == 0
    result_u = characterize_module(
        module, n_patterns=1500, seed=2, stimulus="uniform_hd",
        max_patterns=1500,
    )
    assert result_u.model.counts[1] > 0


def test_corner_bits_odd_count_has_no_spurious_zero_row():
    """Regression: an odd ``n_patterns`` used to leave the preallocated
    last row all-zeros (never written by the pair loop), injecting a fake
    vector and a fake high-Hd seam transition into the enhanced stream.
    Now the odd stream is a strict prefix of the even one."""
    for n in (5, 7, 199):
        odd = corner_input_bits(n, 10, seed=9)
        even = corner_input_bits(n + 1, 10, seed=9)
        assert odd.shape == (n, 10)
        assert np.array_equal(odd, even[:n])


def test_corner_bits_tiny_counts():
    assert corner_input_bits(1, 6, seed=0).shape == (1, 6)
    assert corner_input_bits(2, 6, seed=0).shape == (2, 6)
    a = corner_input_bits(1, 6, seed=0)
    b = corner_input_bits(2, 6, seed=0)
    assert np.array_equal(a[0], b[0])


def test_mixed_bits_odd_corner_block_keeps_length():
    """The corner block must not shrink for odd splits, or the composed
    stream would silently lose patterns."""
    bits = mixed_input_bits(401, 8, seed=7, corner_fraction=0.5)
    assert bits.shape == (401, 8)
    bits = mixed_input_bits(399, 8, seed=7, corner_fraction=0.37)
    assert bits.shape == (399, 8)


def test_convergence_reason_converged():
    module = make_module("ripple_adder", 4)
    result = characterize_module(
        module, n_patterns=1500, seed=0, tolerance=0.5
    )
    assert result.converged
    assert result.convergence_reason == "converged"


def test_convergence_reason_budget_exhausted():
    module = make_module("ripple_adder", 4)
    result = characterize_module(
        module, n_patterns=500, seed=0, tolerance=1e-9, max_patterns=1000
    )
    assert not result.converged
    assert result.convergence_reason == "budget_exhausted"
    assert all(np.isfinite(result.history))


def test_convergence_reason_no_populated_classes():
    """A module too wide for the budget never populates any class to
    ``min_class_count``: the run must say *why* it failed instead of
    silently looping to ``max_patterns`` on an inf-only history."""
    module = make_module("ripple_adder", 16)  # 32 input bits
    with pytest.warns(UserWarning, match="min_class_count"):
        result = characterize_module(
            module,
            n_patterns=100,
            seed=1,
            batch_size=50,
            max_patterns=200,
            min_class_count=20,
        )
    assert not result.converged
    assert result.convergence_reason == "no_populated_classes"
    assert result.history
    assert all(np.isinf(result.history))

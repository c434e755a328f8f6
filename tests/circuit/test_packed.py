"""Packed-lane parity suite: the simulator vs the boolean reference.

:class:`PowerSimulator` runs the compiled instruction tape over packed
64-lane words; its contract is *identical* ``charge`` and
``total_toggles`` arrays to :func:`repro.verify.reference_trace` (the
boolean kernels through the same chunk loop and accounting) at equal
chunk size — see ``test_chunk_invariance`` in ``test_power.py`` for the
cross-chunk-size float tolerance.  This file sweeps that contract across
every registered module kind, the glitch-weighting configurations, the
zero-delay ablation, awkward stream lengths, chunk boundaries and the
popcount LUT fallback, plus unit tests of the lane primitives.
"""

import numpy as np
import pytest

from repro.circuit import packed as packed_mod
from repro.circuit.packed import (
    PACKED_AVAILABLE,
    ToggleAccumulator,
    extract_lane,
    inject_lane,
    n_words_for,
    pack_lanes,
    popcount,
    unpack_lanes,
)
from repro.circuit.hotspots import net_power_breakdown
from repro.circuit.power import PowerSimulator, PowerTrace
from repro.circuit.program import compile_program
from repro.circuit.simulate import functional_values, unit_delay_transition
from repro.modules.library import make_module, module_kinds
from repro.verify import reference_trace

pytestmark = pytest.mark.skipif(
    not PACKED_AVAILABLE, reason="packed lanes need a little-endian host"
)

#: Small width per kind for the full-registry sweep (mac wants >= 2;
#: everything in the registry accepts 4).
SWEEP_WIDTH = 4

#: Structurally diverse trimmed subset for the default (fast) run: a
#: carry chain, a carry-save tree, a control-heavy module and a wide-OR
#: reduction.  The full registry sweep runs under ``-m slow``.
FAST_SWEEP_KINDS = ("ripple_adder", "csa_multiplier", "alu", "popcount")


def _stream(module, n_patterns, seed=0):
    rng = np.random.default_rng(seed)
    n_inputs = len(module.compiled.netlist.inputs)
    return rng.integers(0, 2, size=(n_patterns, n_inputs)).astype(bool)


def _assert_trace_equal(a: PowerTrace, b: PowerTrace):
    np.testing.assert_array_equal(a.total_toggles, b.total_toggles)
    # Bitwise, not allclose: the kernels share the accounting code and the
    # chunk boundaries, so even the float charge must match exactly.
    np.testing.assert_array_equal(a.charge, b.charge)


def _parity(module, bits, **kwargs):
    ref = reference_trace(module.compiled, bits, **kwargs)
    got = PowerSimulator(module.compiled, **kwargs).simulate(bits)
    _assert_trace_equal(ref, got)
    return ref


# ----------------------------------------------------------------------
# Parity with the reference
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("kind", module_kinds())
def test_parity_every_module_kind(kind):
    """Glitch-aware parity on a random stream, for every registry entry."""
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    trace = _parity(module, bits)
    assert trace.n_cycles == 129


@pytest.mark.fast
@pytest.mark.parametrize("kind", FAST_SWEEP_KINDS)
def test_parity_fast_subset(kind):
    """Tier-1 trimmed variant of the full registry sweep."""
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    trace = _parity(module, bits)
    assert trace.n_cycles == 129


@pytest.mark.parametrize("glitch_weight", [0.0, 0.37, 1.0])
def test_parity_glitch_weights(glitch_weight):
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 200, seed=1)
    _parity(module, bits, glitch_aware=True, glitch_weight=glitch_weight)


def test_parity_zero_delay_ablation():
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 200, seed=2)
    _parity(module, bits, glitch_aware=False)


@pytest.mark.parametrize("n_patterns", [2, 63, 64, 65, 128, 129, 193])
def test_parity_awkward_stream_lengths(n_patterns):
    """Tail lanes (pattern counts off the 64-lane grid) stay inert."""
    module = make_module("ripple_adder", 8)
    bits = _stream(module, n_patterns, seed=3)
    trace = _parity(module, bits)
    assert trace.n_cycles == n_patterns - 1


@pytest.mark.parametrize("chunk_size", [17, 64, 100])
def test_parity_across_chunk_boundaries(chunk_size):
    """The carried boundary column must behave identically per kernel."""
    module = make_module("cla_adder", 4)
    bits = _stream(module, 230, seed=4)
    _parity(module, bits, chunk_size=chunk_size, glitch_weight=0.5)


def test_packed_chunk_size_invariance():
    """Cross-chunk-size runs on packed lanes: toggles exact, charge to
    float-summation tolerance (the same contract the reference has)."""
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 129, seed=5)
    whole = PowerSimulator(module.compiled, chunk_size=4096).simulate(bits)
    sliced = PowerSimulator(module.compiled, chunk_size=13).simulate(bits)
    np.testing.assert_array_equal(whole.total_toggles, sliced.total_toggles)
    np.testing.assert_allclose(whole.charge, sliced.charge, rtol=1e-12, atol=0.0)


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
def test_unknown_engine_rejected():
    """The engine option is gone: any engine= keyword is a TypeError."""
    module = make_module("ripple_adder", 4)
    with pytest.raises(TypeError, match="engine"):
        PowerSimulator(module.compiled, engine="simd")


def test_packed_unavailable_falls_back(monkeypatch):
    """Without the lane layout the simulator runs the boolean kernels,
    with the identical trace."""
    module = make_module("ripple_adder", 4)
    bits = _stream(module, 130, seed=6)
    expected = PowerSimulator(module.compiled).simulate(bits)
    monkeypatch.setattr("repro.circuit.power.PACKED_AVAILABLE", False)
    sim = PowerSimulator(module.compiled)
    _assert_trace_equal(sim.simulate(bits), expected)
    assert sim.last_stats.engine == "bool"


def test_stats_record_resolved_engine():
    module = make_module("ripple_adder", 4)
    bits = _stream(module, 130, seed=6)
    sim = PowerSimulator(module.compiled)
    trace = sim.simulate(bits)
    assert sim.last_stats.engine == "compiled"
    assert sim.last_stats.n_cycles == 129
    assert sim.last_stats.total_toggles == int(trace.total_toggles.sum())
    assert sim.last_stats.seconds >= 0.0
    sim.simulate(bits[:3])
    assert sim.last_stats.engine == "compiled"


# ----------------------------------------------------------------------
# Packing primitives
# ----------------------------------------------------------------------
def test_pack_unpack_round_trip():
    rng = np.random.default_rng(7)
    for n_lanes in (1, 63, 64, 65, 130):
        rows = rng.integers(0, 2, size=(5, n_lanes)).astype(bool)
        words = pack_lanes(rows)
        assert words.shape == (5, n_words_for(n_lanes))
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(
            unpack_lanes(words, n_lanes), rows.astype(np.uint8)
        )


def test_pack_lane_bit_layout():
    """Lane k of word w is pattern 64*w + k."""
    rows = np.zeros((1, 130), dtype=bool)
    rows[0, 3] = True
    rows[0, 64] = True
    rows[0, 129] = True
    words = pack_lanes(rows)
    assert words[0, 0] == np.uint64(1) << np.uint64(3)
    assert words[0, 1] == np.uint64(1)
    assert words[0, 2] == np.uint64(1) << np.uint64(1)


def test_extract_inject_lane():
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 2, size=(6, 70)).astype(bool)
    words = pack_lanes(rows)
    np.testing.assert_array_equal(extract_lane(words, 69), rows[:, 69])
    column = ~rows[:, 69]
    inject_lane(words, 69, column)
    np.testing.assert_array_equal(extract_lane(words, 69), column)
    # Other lanes untouched.
    np.testing.assert_array_equal(
        unpack_lanes(words, 69), rows[:, :69].astype(np.uint8)
    )


def test_popcount_matches_python():
    rng = np.random.default_rng(9)
    words = rng.integers(0, 2**63, size=(4, 5), dtype=np.uint64)
    expected = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
    got = popcount(words)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, expected.astype(np.uint64))


def test_popcount_lut_fallback_matches(monkeypatch):
    rng = np.random.default_rng(10)
    words = rng.integers(0, 2**63, size=(3, 7), dtype=np.uint64)
    fast = popcount(words)
    monkeypatch.setattr(packed_mod, "_BITWISE_COUNT", None)
    np.testing.assert_array_equal(popcount(words), fast)


def test_popcount_lut_fallback_edge_words(monkeypatch):
    """The LUT path on the byte-boundary words the random draw can miss."""
    monkeypatch.setattr(packed_mod, "_BITWISE_COUNT", None)
    words = np.array(
        [0, 1, 2**63, 2**64 - 1, 0x0101010101010101, 0xFF00FF00FF00FF00],
        dtype=np.uint64,
    )
    np.testing.assert_array_equal(
        popcount(words), np.array([0, 1, 1, 64, 8, 32], dtype=np.uint64)
    )


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test extra
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**64 - 1),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_popcount_lut_property(values):
        """LUT fallback == bin().count('1') for arbitrary uint64 words."""
        words = np.array(values, dtype=np.uint64)
        saved = packed_mod._BITWISE_COUNT
        packed_mod._BITWISE_COUNT = None
        try:
            got = popcount(words)
        finally:
            packed_mod._BITWISE_COUNT = saved
        expected = [bin(v).count("1") for v in values]
        np.testing.assert_array_equal(got, np.array(expected, dtype=np.uint64))


@pytest.mark.slow
@pytest.mark.parametrize("kind", module_kinds())
def test_parity_every_module_kind_lut_fallback(kind, monkeypatch):
    """The full engine-parity sweep with np.bitwise_count patched away.

    Covers the 8-bit LUT popcount path end to end (ToggleAccumulator
    per-row totals and charge accounting), not just the popcount helper
    in isolation.
    """
    monkeypatch.setattr(packed_mod, "_BITWISE_COUNT", None)
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    _parity(module, bits)


@pytest.mark.fast
@pytest.mark.parametrize("kind", FAST_SWEEP_KINDS)
def test_parity_fast_subset_lut_fallback(kind, monkeypatch):
    """Tier-1 trimmed variant of the LUT-fallback parity sweep."""
    monkeypatch.setattr(packed_mod, "_BITWISE_COUNT", None)
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    _parity(module, bits)


# ----------------------------------------------------------------------
# ToggleAccumulator
# ----------------------------------------------------------------------
def test_accumulator_counts_match_dense():
    rng = np.random.default_rng(11)
    n_rows, n_lanes = 9, 130
    n_words = n_words_for(n_lanes)
    dense = np.zeros((n_rows, n_lanes), dtype=np.uint32)
    accumulator = ToggleAccumulator()
    for _ in range(23):
        mask = rng.integers(0, 2, size=(n_rows, n_lanes)).astype(bool)
        dense += mask
        accumulator.add(pack_lanes(mask, n_words))
    decoded = accumulator.decode(n_lanes)
    assert decoded.dtype == np.uint8  # 23 < 2**8 -> narrow path
    np.testing.assert_array_equal(decoded.astype(np.uint32), dense)
    np.testing.assert_array_equal(
        accumulator.per_row_totals(n_rows),
        dense.sum(axis=1).astype(np.int64),
    )


def test_accumulator_wide_counts():
    """More than 8 planes (counts >= 256) switch decode to uint32."""
    n_lanes = 3
    ones = pack_lanes(np.ones((2, n_lanes), dtype=bool))
    accumulator = ToggleAccumulator()
    for _ in range(300):
        accumulator.add(ones)
    decoded = accumulator.decode(n_lanes)
    assert decoded.dtype == np.uint32
    assert (decoded == 300).all()
    np.testing.assert_array_equal(
        accumulator.per_row_totals(2), np.full(2, 300 * n_lanes)
    )


def test_accumulator_empty_decode_raises():
    with pytest.raises(ValueError, match="empty"):
        ToggleAccumulator().decode(4)


# ----------------------------------------------------------------------
# Kernel-level parity with the boolean reference
# ----------------------------------------------------------------------
def test_packed_functional_values_match_bool():
    """The tape's packed settle equals the boolean functional_values."""
    module = make_module("alu", 4)
    compiled = module.compiled
    program = compile_program(compiled)
    bits = _stream(module, 100, seed=12)
    expected = functional_values(compiled, bits)
    n_words = n_words_for(len(bits))
    got = program.settle(pack_lanes(bits.T, n_words), n_words)
    np.testing.assert_array_equal(
        unpack_lanes(got[program.row_of_net], len(bits)).astype(bool),
        expected,
    )


def test_packed_unit_delay_matches_bool():
    """The tape's packed relax equals the boolean unit_delay_transition:
    final values and dense per-net toggle counts."""
    module = make_module("csa_multiplier", 4)
    compiled = module.compiled
    program = compile_program(compiled)
    old = _stream(module, 100, seed=13)
    new = _stream(module, 100, seed=14)
    settled = functional_values(compiled, old)
    final_ref, toggles_ref = unit_delay_transition(compiled, settled, new)
    n_words = n_words_for(100)
    packed_settled = program.settle(pack_lanes(old.T, n_words), n_words)
    final, accumulator, _ = program.relax(
        packed_settled, pack_lanes(new.T, n_words)
    )
    row_of_net = program.row_of_net
    np.testing.assert_array_equal(
        unpack_lanes(final[row_of_net], 100).astype(bool), final_ref
    )
    planes = ToggleAccumulator()
    planes.planes = [p[row_of_net] for p in accumulator.planes]
    np.testing.assert_array_equal(
        planes.decode(100).astype(np.uint32), toggles_ref
    )


def _reference_net_toggles(compiled, bits):
    """Per-net toggle totals straight from the boolean kernels."""
    settled = functional_values(compiled, bits[:-1])
    _, toggles = unit_delay_transition(compiled, settled, bits[1:])
    return toggles.sum(axis=1, dtype=np.int64)


def test_hotspots_engine_parity():
    """The hotspot report's popcount totals equal the boolean reference
    per net, and its charge is those totals times the net caps."""
    module = make_module("booth_wallace_multiplier", 4)
    bits = _stream(module, 150, seed=15)
    toggles = _reference_net_toggles(module.compiled, bits)
    caps = module.compiled.net_caps
    report = net_power_breakdown(module.compiled, bits, chunk_size=64)
    assert len(report) == module.compiled.n_nets
    for h in report:
        assert h.toggles == toggles[h.net]
        assert h.charge == toggles[h.net] * caps[h.net]

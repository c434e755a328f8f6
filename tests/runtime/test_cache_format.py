"""Cache record format "2": raw-array codec, stale records, lookup spans."""

import json
import pickle

import numpy as np
import pytest

import repro
from repro.circuit.power import PowerSimulator, PowerTrace
from repro.core import (
    EnhancedHdModel,
    HdPowerModel,
    characterize_module,
    classify_transitions,
)
from repro.core.characterize import CharacterizationResult, uniform_hd_input_bits
from repro.core.serialize import decode_array, encode_array, model_to_dict
from repro.eval import ExperimentConfig
from repro.modules import make_module
from repro.modules.library import PAPER_MODULE_KINDS
from repro.obs import EVENTS, delta, trace
from repro.runtime import CharacterizationJob, ModelCache, characterize_jobs
from repro.runtime.cache import CACHE_FORMAT_VERSION


def _round_trip(tmp_path, result):
    cache = ModelCache(tmp_path)
    key = cache.characterization_key("k", 1, True, ExperimentConfig(), 0)
    cache.store_characterization(key, result)
    fresh = ModelCache(tmp_path)
    loaded = fresh.load_characterization(key)
    assert fresh.hits == 1 and fresh.quarantined == 0
    return loaded


# ----------------------------------------------------------------------
# Bit-exact round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("enhanced", [False, True], ids=["basic", "enhanced"])
@pytest.mark.parametrize("kind", PAPER_MODULE_KINDS)
def test_characterization_round_trip_pickle_identical(tmp_path, kind,
                                                      enhanced):
    """A loaded record rebuilds the very objects a cold run returned: same
    pickles (dtypes, key tuples and their order, shared name objects)."""
    cold = characterize_module(make_module(kind, 4), n_patterns=300, seed=3,
                               enhanced=enhanced)
    warm = _round_trip(tmp_path, cold)
    assert pickle.dumps(warm.model) == pickle.dumps(cold.model)
    assert pickle.dumps(warm.enhanced) == pickle.dumps(cold.enhanced)
    assert pickle.dumps((warm.model, warm.enhanced)) == \
        pickle.dumps((cold.model, cold.enhanced))
    assert pickle.dumps(warm.accumulator) == pickle.dumps(cold.accumulator)
    assert warm.history == cold.history
    assert (warm.n_patterns, warm.converged, warm.average_charge,
            warm.convergence_reason) == \
        (cold.n_patterns, cold.converged, cold.average_charge,
         cold.convergence_reason)
    if enhanced:
        for name in ("coefficients", "counts", "deviations"):
            assert list(getattr(warm.enhanced, name)) == \
                list(getattr(cold.enhanced, name))


def _special_result():
    """A hand-built result with every value JSON number lists mangle."""
    nan, inf = float("nan"), float("inf")
    model = HdPowerModel(
        name="special", width=3,
        coefficients=[0.0, 1.5, 2.25, 3.0],
        deviations=np.array([nan, -0.0, nan, 5e-324]),
        counts=np.array([0, 4, 0, 1]),
        standard_errors=np.array([nan, 0.125, nan, nan]),
    )
    rng = np.random.default_rng(0)
    hd = rng.integers(1, 4, size=60)
    zeros = np.array([rng.integers(0, 4 - h) for h in hd])
    enhanced = EnhancedHdModel.fit(hd, zeros, rng.random(60), width=3,
                                   name="special")
    return CharacterizationResult(
        model=model, enhanced=enhanced, n_patterns=60, converged=False,
        history=[inf, 0.5, -inf, nan], average_charge=0.75,
        convergence_reason="budget_exhausted",
    )


def test_nan_inf_and_signed_zero_round_trip_bitwise(tmp_path):
    cold = _special_result()
    warm = _round_trip(tmp_path, cold)
    for name in ("coefficients", "deviations", "counts", "standard_errors"):
        left, right = getattr(cold.model, name), getattr(warm.model, name)
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes(), name
    assert np.array(warm.history).tobytes() == \
        np.array(cold.history).tobytes()
    assert warm.accumulator is None
    assert pickle.dumps(warm.enhanced) == pickle.dumps(cold.enhanced)


def test_enhanced_key_order_preserved(tmp_path):
    """Insertion order is data: it survives even when it is not sorted."""
    cold = _special_result()
    items = list(cold.enhanced.coefficients)[::-1]
    reordered = EnhancedHdModel(
        name="special", width=3, cluster_size=1,
        coefficients={k: cold.enhanced.coefficients[k] for k in items},
        counts={k: cold.enhanced.counts[k] for k in items},
        deviations={k: cold.enhanced.deviations[k] for k in items},
        fallback=cold.enhanced.fallback,
    )
    cold.enhanced = reordered
    warm = _round_trip(tmp_path, cold)
    assert list(warm.enhanced.coefficients) == items
    assert list(warm.enhanced.deviations) == items
    assert model_to_dict(warm.enhanced) == model_to_dict(reordered)


def test_enhanced_dicts_must_share_one_key_sequence(tmp_path):
    cold = _special_result()
    keys = list(cold.enhanced.counts)
    cold.enhanced = EnhancedHdModel(
        name="special", width=3, cluster_size=1,
        coefficients=dict(cold.enhanced.coefficients),
        counts={k: cold.enhanced.counts[k] for k in reversed(keys)},
        deviations=dict(cold.enhanced.deviations),
        fallback=cold.enhanced.fallback,
    )
    cache = ModelCache(tmp_path)
    with pytest.raises(ValueError, match="one key sequence"):
        cache.store_characterization("k" * 64, cold)
    assert cache.stores == 0
    assert list(tmp_path.iterdir()) == []


def test_records_hold_base64_arrays_not_number_lists(tmp_path):
    cold = characterize_module(make_module("ripple_adder", 3), n_patterns=200,
                               seed=1, enhanced=True)
    cache = ModelCache(tmp_path)
    path = cache.store_characterization("a" * 64, cold)
    record = json.loads(path.read_text())
    assert record["format"] == CACHE_FORMAT_VERSION == "2"
    payload = record["payload"]
    assert isinstance(payload["model"]["coefficients"], str)
    assert isinstance(payload["enhanced"]["keys"], str)
    assert isinstance(payload["history"], str)
    assert payload["accumulator"] == cold.accumulator.snapshot()


# ----------------------------------------------------------------------
# Corrupt arrays are quarantined misses
# ----------------------------------------------------------------------
def _chop(text):
    return text[:-4]             # valid base64, not whole items


def _unpad(text):
    return text[:-1]             # not a whole base64 quantum


def _bad_char(text):
    return "!" + text[1:]        # outside the base64 alphabet


def _one_short(text):
    raw = decode_array(text, np.float64, (-1,))
    return encode_array(raw[:-1], np.float64)


CORRUPTIONS = {
    "model-truncated": (("model", "coefficients"), _unpad),
    "model-chopped": (("model", "deviations"), _chop),
    "model-bad-char": (("model", "counts"), _bad_char),
    "enhanced-keys-short": (("enhanced", "keys"), _chop),
    "enhanced-column-short": (("enhanced", "deviations"), _one_short),
    "fallback-short": (("enhanced", "fallback", "standard_errors"),
                       _one_short),
    "history-bad-char": (("history",), _bad_char),
    "accumulator-short": (("accumulator", "arrays", "sums"), _one_short),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_array_field_is_quarantined_miss(tmp_path, case):
    fields, corrupt = CORRUPTIONS[case]
    cold = characterize_module(make_module("ripple_adder", 3), n_patterns=200,
                               seed=1, enhanced=True)
    cache = ModelCache(tmp_path)
    key = cache.characterization_key("ripple_adder", 3, True,
                                     ExperimentConfig(), 1)
    path = cache.store_characterization(key, cold)
    record = json.loads(path.read_text())
    node = record["payload"]
    for name in fields[:-1]:
        node = node[name]
    node[fields[-1]] = corrupt(node[fields[-1]])
    path.write_text(json.dumps(record))

    fresh = ModelCache(tmp_path)
    before = EVENTS.snapshot()
    assert fresh.load_characterization(key) is None
    counted = delta(before, EVENTS.snapshot())
    assert fresh.hits == 0 and fresh.misses == 1 and fresh.quarantined == 1
    assert counted['repro_cache_lookups_total{result="demoted"}'] == 1
    assert not path.exists() and path.with_suffix(".corrupt").exists()


@pytest.mark.parametrize("field", ["charge", "stable_ones"])
def test_corrupt_trace_array_is_quarantined_miss(tmp_path, field):
    module = make_module("ripple_adder", 3)
    bits = uniform_hd_input_bits(60, module.input_bits, seed=2)
    cache = ModelCache(tmp_path)
    key = cache.trace_key("ripple_adder", 3, "I", ExperimentConfig(), 2)
    path = cache.store_trace(key, classify_transitions(bits),
                             PowerSimulator(module.compiled).simulate(bits))
    record = json.loads(path.read_text())
    record["payload"][field] = _chop(record["payload"][field])
    path.write_text(json.dumps(record))

    fresh = ModelCache(tmp_path)
    assert fresh.load_trace(key) is None
    assert fresh.quarantined == 1 and fresh.misses == 1


# ----------------------------------------------------------------------
# Stale (format "1") records
# ----------------------------------------------------------------------
def _format_1_payload(result):
    """The pre-"2" layout: decimal number lists and string-keyed dicts."""
    acc = result.accumulator
    return {
        "model": model_to_dict(result.model),
        "enhanced": None,
        "n_patterns": result.n_patterns,
        "converged": result.converged,
        "history": [v if np.isfinite(v) else repr(v)
                    for v in result.history],
        "average_charge": result.average_charge,
        "convergence_reason": result.convergence_reason,
        "accumulator": {
            "width": acc.width,
            **{name: getattr(acc, name).tolist()
               for name in ("counts", "sums", "sumsq", "abs_dev",
                            "abs_dev_hd")},
        },
    }


def test_format_1_record_is_stale_recharacterized_and_overwritten(tmp_path):
    config = ExperimentConfig(n_characterization=200, seed=4)
    jobs = [CharacterizationJob("ripple_adder", 3)]
    first = characterize_jobs(jobs, config=config, cache=ModelCache(tmp_path))
    (path,) = tmp_path.glob("*.json")
    old = {"format": "1", "created": 0.0,
           "meta": {"record": "characterization"},
           "payload": _format_1_payload(first.results[0])}
    path.write_text(json.dumps(old))

    before = EVENTS.snapshot()
    cache = ModelCache(tmp_path)
    second = characterize_jobs(jobs, config=config, cache=cache)
    counted = delta(before, EVENTS.snapshot())
    assert counted['repro_cache_lookups_total{result="stale"}'] == 1
    assert 'repro_cache_lookups_total{result="hit"}' not in counted
    assert second.cache_hits == 0 and second.cache_misses == 1
    assert cache.misses == 1 and cache.quarantined == 0
    # Re-characterized and overwritten at the same key path.
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert json.loads(path.read_text())["format"] == CACHE_FORMAT_VERSION
    assert pickle.dumps(second.results[0].model) == \
        pickle.dumps(first.results[0].model)

    third = characterize_jobs(jobs, config=config, cache=ModelCache(tmp_path))
    assert third.cache_hits == 1 and third.cache_misses == 0


# ----------------------------------------------------------------------
# Lookup / store spans
# ----------------------------------------------------------------------
def _spans(ctx, name):
    return [r for r in ctx.records() if r["name"] == name]


def test_traced_session_hit_is_one_lookup_span(tmp_path):
    config = ExperimentConfig(n_characterization=200, seed=2)
    with trace("cold") as cold:
        repro.Session(cache_dir=str(tmp_path), config=config).characterize(
            "ripple_adder", 4, enhanced=True)
    (lookup,) = _spans(cold, "cache.lookup")
    assert lookup["attrs"] == {"record": "characterization",
                               "result": "miss"}
    (store,) = _spans(cold, "cache.store")
    assert store["attrs"] == {"record": "characterization"}

    with trace("warm") as warm:
        repro.Session(cache_dir=str(tmp_path), config=config).characterize(
            "ripple_adder", 4, enhanced=True)
    (lookup,) = _spans(warm, "cache.lookup")
    assert lookup["attrs"] == {"record": "characterization", "result": "hit"}
    names = {r["name"] for r in warm.records()}
    assert not {n for n in names
                if n.startswith(("characterize.", "sim."))}
    assert "cache.store" not in names


def test_lookup_span_labels_demoted_and_trace_records(tmp_path):
    cache = ModelCache(tmp_path)
    key = cache.trace_key("ripple_adder", 3, "I", ExperimentConfig(), 1)
    events = classify_transitions(
        uniform_hd_input_bits(20, 6, seed=1))
    power = PowerTrace(charge=np.ones(events.n_cycles),
                       total_toggles=np.ones(events.n_cycles, np.int64))
    path = cache.store_trace(key, events, power)
    record = json.loads(path.read_text())
    record["payload"]["hd"] = "!!!!"
    path.write_text(json.dumps(record))
    with trace("t") as ctx:
        assert cache.load_trace(key) is None
    (lookup,) = _spans(ctx, "cache.lookup")
    assert lookup["attrs"] == {"record": "trace", "result": "demoted"}


def test_untraced_lookup_records_no_spans(tmp_path):
    before = EVENTS.snapshot()
    assert ModelCache(tmp_path).load_characterization("0" * 64) is None
    assert "repro_spans_recorded_total" not in delta(before,
                                                     EVENTS.snapshot())

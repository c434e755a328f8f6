"""Model registry: resolution order, single-flight dedup, width regression."""

import threading
import time

import numpy as np
import pytest

from repro.eval import ExperimentConfig
from repro.runtime import ModelCache
from repro.serve import (
    ModelRegistry,
    RegistryError,
    UnknownKindError,
)

CONFIG = ExperimentConfig(n_characterization=300, seed=5)


def test_memory_hit_returns_same_object(serve_registry, served_adder4):
    before = serve_registry.metrics.registry_lookups_total.value(
        result="memory"
    )
    again = serve_registry.get("ripple_adder", 4)
    assert again is served_adder4
    after = serve_registry.metrics.registry_lookups_total.value(
        result="memory"
    )
    assert after == before + 1


def test_resident_is_the_memory_tier_only(serve_registry, served_adder4):
    """resident() never loads: None on a miss, the model on a hit."""
    lookups = serve_registry.metrics.registry_lookups_total
    memory_before = lookups.value(result="memory")
    assert serve_registry.resident("ripple_adder", 4) is served_adder4
    assert lookups.value(result="memory") == memory_before + 1

    cold = ModelRegistry(config=CONFIG, cache=None)
    assert cold.resident("ripple_adder", 4) is None
    assert len(cold) == 0
    assert cold.metrics.registry_lookups_total.value(result="memory") == 0


def test_resident_rejects_bad_requests_like_get():
    registry = ModelRegistry(config=CONFIG, cache=None, max_exact_width=4)
    with pytest.raises(UnknownKindError):
        registry.resident("flux_capacitor", 4)
    with pytest.raises(RegistryError, match="mode"):
        registry.resident("ripple_adder", 4, mode="psychic")
    with pytest.raises(RegistryError, match="width"):
        registry.resident("ripple_adder", 0)
    with pytest.raises(RegistryError, match="enhanced"):
        registry.resident("ripple_adder", 8, enhanced=True)
    assert len(registry) == 0


def test_characterized_source_and_estimator(served_adder4):
    assert served_adder4.source == "characterized"
    assert served_adder4.name == "ripple_adder/4"
    assert served_adder4.module.input_bits == 8
    assert served_adder4.estimator.model.width == 8


def test_unknown_kind_and_bad_args():
    registry = ModelRegistry(config=CONFIG, cache=None)
    with pytest.raises(UnknownKindError):
        registry.get("flux_capacitor", 4)
    with pytest.raises(RegistryError, match="mode"):
        registry.get("ripple_adder", 4, mode="psychic")
    with pytest.raises(RegistryError, match="width"):
        registry.get("ripple_adder", 0)


def test_enhanced_plus_regressed_rejected():
    registry = ModelRegistry(config=CONFIG, cache=None, max_exact_width=4)
    with pytest.raises(RegistryError, match="enhanced"):
        registry.get("ripple_adder", 8, enhanced=True)


def test_cache_round_trip(tmp_path):
    cold = ModelRegistry(config=CONFIG, cache=ModelCache(tmp_path))
    first = cold.get("ripple_adder", 3)
    assert first.source == "characterized"

    warm = ModelRegistry(config=CONFIG, cache=ModelCache(tmp_path))
    second = warm.get("ripple_adder", 3)
    assert second.source == "cache"
    np.testing.assert_array_equal(
        first.estimator.model.coefficients,
        second.estimator.model.coefficients,
    )


def test_single_flight_dedup():
    """N concurrent misses for one key -> exactly one characterization."""
    registry = ModelRegistry(config=CONFIG, cache=None)
    results = []
    barrier = threading.Barrier(6)

    def fetch():
        barrier.wait()
        results.append(registry.get("ripple_adder", 4))

    threads = [threading.Thread(target=fetch) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 6
    assert all(r is results[0] for r in results)
    lookups = registry.metrics.registry_lookups_total
    assert lookups.value(result="characterized") == 1
    coalesced = registry.metrics.registry_coalesced_total.value()
    memory = lookups.value(result="memory")
    # Every follower either waited on the leader or hit memory afterwards.
    assert coalesced + memory == 5


def test_single_flight_propagates_leader_error():
    registry = ModelRegistry(config=CONFIG, cache=None)
    errors = []
    barrier = threading.Barrier(3)

    def fetch():
        barrier.wait()
        try:
            # absval cannot be built at width 1 (sign bit needs a payload).
            registry.get("absval", 1, mode="exact")
        except RegistryError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=fetch) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(errors) == 3
    # A failed load leaves nothing resident: a retry is a fresh attempt.
    assert len(registry) == 0


def test_single_flight_failed_leader_lets_followers_retry():
    """A failed leader must not strand its followers.

    The first materialization raises after followers have queued behind
    it; the waiting followers must *retry* (one becomes the new leader)
    and come back with a real model, never hang on the dead slot or
    re-raise the leader's stale error.
    """
    registry = ModelRegistry(config=CONFIG, cache=None)
    original = registry._materialize_exact
    calls = []
    followers_queued = threading.Event()

    def flaky(kind, width, enhanced):
        calls.append((kind, width))
        if len(calls) == 1:
            # Hold the leader until the followers are blocked on the
            # slot, then fail: the exact interleaving the bug hit.
            followers_queued.wait(timeout=5.0)
            raise RuntimeError("injected characterization failure")
        return original(kind, width, enhanced)

    registry._materialize_exact = flaky
    outcomes = []
    outcomes_lock = threading.Lock()
    barrier = threading.Barrier(4)

    def fetch(is_leader_candidate):
        barrier.wait()
        if not is_leader_candidate:
            # Give the leader a head start so the followers coalesce.
            time.sleep(0.05)
            followers_queued.set()
        try:
            result = registry.get("ripple_adder", 4)
        except RuntimeError as exc:
            result = exc
        with outcomes_lock:
            outcomes.append(result)

    threads = [
        threading.Thread(target=fetch, args=(index == 0,))
        for index in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads), (
        "a follower hung on the failed leader's slot"
    )
    models = [o for o in outcomes if not isinstance(o, Exception)]
    failures = [o for o in outcomes if isinstance(o, Exception)]
    # Exactly the injected failure surfaced (to the thread that led the
    # doomed attempt); everyone else retried into a real model.
    assert len(failures) == 1 and "injected" in str(failures[0])
    assert len(models) == 3 and all(m is models[0] for m in models)
    # The retry characterized for real: the flaky stub ran at least twice.
    assert len(calls) >= 2
    # Nothing in flight afterwards; the key is clean for future lookups.
    assert registry._inflight == {}
    assert registry.get("ripple_adder", 4) is models[0]


def test_regressed_width_serving():
    """Widths past max_exact_width come from the Eq. 6-10 regression."""
    registry = ModelRegistry(
        config=CONFIG, cache=None,
        max_exact_width=4, prototype_widths=(2, 3, 4),
    )
    served = registry.get("ripple_adder", 12)
    assert served.source == "regressed"
    assert served.estimator.model.width == served.module.input_bits
    assert np.isfinite(served.estimator.model.coefficients).all()
    # The prototypes were materialized exactly along the way.
    loaded = registry.loaded()
    widths = sorted(m["width"] for m in loaded)
    assert widths == [2, 3, 4, 12]
    # A regressed model estimates plausibly (positive charge on activity).
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(32, served.module.input_bits))
    result = served.estimator.estimate_from_bits(bits)
    assert result.average_charge > 0


def test_resolve_mode_auto_boundary():
    registry = ModelRegistry(config=CONFIG, cache=None, max_exact_width=8)
    assert registry.resolve_mode("ripple_adder", 8) == "exact"
    assert registry.resolve_mode("ripple_adder", 9) == "regressed"
    assert registry.resolve_mode("ripple_adder", 32, "exact") == "exact"


def test_loaded_listing_shape(serve_registry, served_adder4):
    listing = serve_registry.loaded()
    entry = [
        m for m in listing
        if m["kind"] == "ripple_adder" and m["width"] == 4
    ][0]
    assert entry["source"] == "characterized"
    assert entry["input_bits"] == 8
    assert not entry["enhanced"]

"""Metric primitives and the always-on global counter registry.

Global-counter assertions are written as snapshot *deltas*: the EVENTS
registry is process-global and every other test in the run feeds it too.
"""

import numpy as np
import pytest

from repro.obs import EVENTS, delta, global_events
from repro.obs.events import (
    Counter,
    EventCounters,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_labels_total_and_render():
    counter = Counter("demo_total", "help here", ("kind",))
    counter.inc(kind="a")
    counter.inc(2.5, kind="b")
    assert counter.value(kind="a") == 1
    assert counter.value(kind="missing") == 0
    assert counter.total() == 3.5
    lines = counter.render()
    assert "# TYPE demo_total counter" in lines
    assert 'demo_total{kind="a"} 1' in lines
    assert 'demo_total{kind="b"} 2.5' in lines


def test_counter_rejects_negative_and_bad_labels():
    counter = Counter("neg_total", "", ("kind",))
    with pytest.raises(ValueError):
        counter.inc(-1, kind="a")
    with pytest.raises(ValueError):
        counter.inc(other="a")


def test_gauge_set_inc_dec():
    gauge = Gauge("depth", "")
    gauge.set(5)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value() == 4


def test_histogram_quantile_and_count():
    hist = Histogram("lat", "", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    assert hist.count() == 4
    assert hist.quantile(0.5) == 1.0
    assert hist.quantile(1.0) == 10.0
    assert Histogram("empty", "", buckets=(1,)).quantile(0.5) is None


def test_registry_rejects_duplicate_names():
    registry = MetricsRegistry()
    registry.counter("x_total", "")
    with pytest.raises(ValueError, match="duplicate"):
        registry.counter("x_total", "")


def test_snapshot_and_delta():
    counters = EventCounters()
    before = counters.snapshot()
    counters.sim_toggles.inc(7)
    counters.cache_lookups.inc(result="hit")
    changed = delta(before, counters.snapshot())
    assert changed == {
        "repro_sim_toggles_total": 7.0,
        'repro_cache_lookups_total{result="hit"}': 1.0,
    }


def test_global_events_is_shared_singleton():
    assert global_events() is EVENTS


# ----------------------------------------------------------------------
# The hot paths actually feed the global registry
# ----------------------------------------------------------------------
def test_simulate_feeds_sim_counters(ripple8, rng):
    from repro.circuit import PowerSimulator

    bits = rng.integers(0, 2, size=(40, ripple8.input_bits)).astype(bool)
    before = EVENTS.snapshot()
    simulator = PowerSimulator(ripple8.compiled)
    simulator.simulate(bits)
    changed = delta(before, EVENTS.snapshot())
    engine = simulator.last_stats.engine
    assert changed[f'repro_sim_transitions_total{{engine="{engine}"}}'] == 39
    assert changed["repro_sim_toggles_total"] > 0
    assert "repro_sim_seconds_total" in changed


def test_classify_and_fit_feed_counters(ripple8, rng):
    from repro.core import characterize_module
    from repro.obs import trace

    before = EVENTS.snapshot()
    with trace("characterize-run") as ctx:
        result = characterize_module(ripple8, n_patterns=300, seed=3)
    changed = delta(before, EVENTS.snapshot())
    assert changed["repro_characterize_runs_total"] == 1
    assert changed["repro_characterize_patterns_total"] >= 300
    assert changed["repro_stimulus_rows_total"] == result.n_patterns
    assert changed["repro_classify_passes_total"] >= 1
    assert changed["repro_fit_updates_total"] >= 1
    assert changed["repro_fit_samples_total"] > 0
    # Every batch splits into stimulus and classify spans.
    records = ctx.records()
    batches = {r["id"] for r in records if r["name"] == "characterize.batch"}
    for name in ("characterize.stimulus", "characterize.classify"):
        children = [r for r in records if r["name"] == name]
        assert len(children) == len(batches)
        assert {r["parent"] for r in children} == batches
    stimulus_rows = sum(
        r["attrs"]["rows"] for r in records
        if r["name"] == "characterize.stimulus"
    )
    assert stimulus_rows == result.n_patterns


def test_model_cache_feeds_lookup_counters(tmp_path):
    from repro.eval import ExperimentConfig
    from repro.runtime import CharacterizationJob, ModelCache, characterize_jobs

    config = ExperimentConfig(n_characterization=200, seed=4)
    jobs = [CharacterizationJob("ripple_adder", 2)]

    before = EVENTS.snapshot()
    characterize_jobs(jobs, config=config, jobs=1,
                      cache=ModelCache(tmp_path))
    cold = delta(before, EVENTS.snapshot())
    assert cold['repro_cache_lookups_total{result="miss"}'] >= 1
    assert cold["repro_cache_stores_total"] >= 1

    before = EVENTS.snapshot()
    characterize_jobs(jobs, config=config, jobs=1,
                      cache=ModelCache(tmp_path))
    warm = delta(before, EVENTS.snapshot())
    assert warm['repro_cache_lookups_total{result="hit"}'] == 1
    assert 'repro_cache_lookups_total{result="miss"}' not in warm


def test_render_is_prometheus_text():
    page = EVENTS.render()
    assert "# TYPE repro_sim_transitions_total counter" in page
    assert "# HELP repro_cache_lookups_total" in page
    assert page.endswith("\n")


def test_no_duplicate_definitions_between_serve_and_global():
    """Acceptance: one shared registry — serve aliases, never redefines."""
    from repro.serve.metrics import ServeMetrics

    metrics = ServeMetrics()
    assert metrics.engine_cycles_total is EVENTS.batch_cycles
    assert metrics.engine_requests_total is EVENTS.batch_requests
    global_names = set(EVENTS.registry._metrics)
    serve_names = set(metrics.registry._metrics)
    assert not global_names & serve_names

"""Percentile rule, failure tallies, environment comparison, host speed."""

import numpy as np
import pytest

import compare
import record


@pytest.mark.parametrize("n, expected", [
    (0, 0.0), (10, 0.0), (11, 100 / 11), (20, 50.0), (100, 90.0),
    (200, 95.0), (1000, 99.0),
])
def test_supported_percentile_leaves_ten_samples_beyond(n, expected):
    assert record.supported_percentile(n) == pytest.approx(expected)


@pytest.mark.parametrize("q", [50, 90, 95, 99])
def test_samples_for_is_the_smallest_supporting_count(q):
    n = record.samples_for(q)
    assert record.supported_percentile(n) >= q
    assert record.supported_percentile(n - 1) < q


def test_percentile_matches_numpy_and_refuses_unsupported_tails():
    rng = np.random.default_rng(0)
    samples = list(rng.exponential(size=100))
    for q in (50, 75, 90):
        assert record.percentile(samples, q) == pytest.approx(
            np.percentile(samples, q))
    with pytest.raises(ValueError, match="p95 needs 200 samples"):
        record.percentile(samples, 95)
    assert record.percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        record.percentile([], 50)


def test_tally_counts_operations_and_checks():
    tally, log = record.Tally(), []
    tally.operations(12)
    tally.operations(40, 2)
    assert tally.check(True, "fine", log)
    assert not tally.check(False, "digest mismatch", log)
    assert (tally.attempted, tally.failed) == (54, 3)
    assert tally.fail_ratio == pytest.approx(3 / 54)
    assert log == ["digest mismatch"]
    with pytest.raises(ValueError):
        tally.operations(1, 2)


def test_an_empty_tally_is_not_a_success():
    assert record.Tally().fail_ratio == 1.0


def test_result_line_rejects_bad_names():
    tally = record.Tally(attempted=1)
    line = record.result_line(tally, {"work_s": 1.5}, {"work_s": "s"})
    assert line == {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"work_s": {"value": 1.5, "unit": "s"}}}
    with pytest.raises(ValueError):
        record.result_line(tally, {"bad name": 1.0}, {"bad name": "s"})


def _stamp(**changes):
    stamp = {"git_sha": "a", "python": "3.11.7", "numpy": "2.4.6",
             "cpu_count": 2, "native_status": "native (/x/relax.so)",
             "native_backend": "native"}
    stamp.update(changes)
    return stamp


def test_environment_differences_that_make_runs_incomparable():
    assert record.incomparable(_stamp(), _stamp(git_sha="b")) == []
    assert record.backend_class("native (/y/relax.so)") == "native"
    for field, value in (("native_backend", "no compiler or build failed"),
                         ("numpy", "1.26.4"), ("cpu_count", 8)):
        reasons = record.incomparable(_stamp(), _stamp(**{field: value}))
        assert len(reasons) == 1 and reasons[0].startswith(field)


def _record(value, **stamp):
    return {"workload": "serve-mixed", "environment": _stamp(**stamp),
            "metrics": {"work_s": {"value": value, "unit": "s"}}}


SPEC = {"end_to_end": [{"name": "work_s", "unit": "s", "better": "lower",
                        "bound": 0.1}], "per_layer": []}


def test_compare_flags_regressions_beyond_the_bound():
    base = [_record(1.0), _record(1.02), _record(0.98)]
    verdict = compare.compare(base, [_record(1.05)], SPEC)
    assert verdict["comparable"] and not verdict["metrics"][0]["regressed"]
    verdict = compare.compare(base, [_record(1.2)], SPEC)
    assert verdict["metrics"][0]["regressed"]


def test_compare_refuses_runs_with_another_native_backend():
    verdict = compare.compare(
        [_record(1.0)],
        [_record(2.0, native_backend="no compiler or build failed")], SPEC)
    assert not verdict["comparable"]
    assert "native_backend" in verdict["reasons"][0]


def test_read_record_from_saved_output(tmp_path):
    import json

    path = tmp_path / "out.txt"
    full = _record(1.0)
    path.write_text("a table line\n" + json.dumps(full) + "\n"
                    + json.dumps({"correct": True}) + "\n")
    assert record.read_record(str(path)) == full
    path.write_text("no record here\n")
    assert record.read_record(str(path)) is None


def test_host_speed_factor_is_nominal_over_the_mean_sample(monkeypatch):
    import common

    samples = iter([0.02, 0.04, 0.016, 0.008])
    monkeypatch.setattr(common, "reference_seconds", lambda: next(samples))
    monkeypatch.setattr(common, "REFERENCE_NOMINAL_S", 0.015)
    speed = common.HostSpeed()
    speed.sample()
    speed.sample()
    assert speed.factor() == pytest.approx(0.5)      # slow spell: 0.03
    assert speed.factor() == pytest.approx(0.9375)   # no sample yet: takes one
    speed.sample()
    assert speed.factor() == pytest.approx(1.875)    # fast spell
    assert speed.factors == pytest.approx([0.5, 0.9375, 1.875])
    assert speed.spent >= 0.0

"""The command's output contract: declared names, units and fail counts."""

import json
import subprocess
import sys

import pytest

import common
import layers
import record
import run

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _names(group):
    return [entry["name"] for entry in SPEC[group]]


def test_declared_names_and_units_are_well_formed():
    names = _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert record.NAME_PATTERN.fullmatch(entry["name"])
        assert len(entry["name"]) <= 64 and entry["name"][0].isalnum()
        assert entry["better"] in ("higher", "lower")
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_layer_metrics_are_declared():
    empty = {"self_s": {}, "counts": {}}
    assert set(layers.layer_metrics(empty)) <= set(_names("per_layer"))


def _fake_runner(end_to_end, per_layer, fail=False):
    def runner(ctx):
        ctx.tally.operations(10)
        ctx.check(not fail, "outputs differ")
        return end_to_end, per_layer
    return runner


def _main(monkeypatch, capsys, runner, trace):
    monkeypatch.setattr(run, "_runner", lambda workload: runner)
    monkeypatch.setattr(common, "activate", lambda: None)
    assert run.main(["--workload", "serve-mixed", "--seed", "1",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


E2E = {"setup_s": 0.5, "work_s": 1.5, "op_p50_ms": 3.0, "op_p90_ms": 4.0,
       "peak_rss_mb": 70.0}


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    full, result = _main(monkeypatch, capsys, _fake_runner(E2E, {}), 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == _names("end_to_end")
    assert result["metrics"]["ok_ratio"] == {"value": 1.0, "unit": "ratio"}
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 11, 0)
    assert set(full["environment"]) >= {"git_sha", "python", "numpy",
                                        "cpu_count", "native_status"}


def test_a_failed_check_counts_in_the_fail_ratio(monkeypatch, capsys):
    _, result = _main(monkeypatch, capsys,
                      _fake_runner({}, {"stimulus.s": 2.0}, fail=True), 1)
    assert list(result["metrics"]) == _names("per_layer")
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["fail_ratio"]["value"] == pytest.approx(1 / 11)
    assert result["metrics"]["stimulus.s"]["value"] == 2.0


def test_undeclared_metric_names_are_refused(monkeypatch, capsys):
    with pytest.raises(SystemExit, match="undeclared"):
        _main(monkeypatch, capsys,
              _fake_runner(dict(E2E, surprise_s=1.0), {}), 0)


def test_without_the_program_the_command_fails(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in common.ROOT.joinpath("perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout

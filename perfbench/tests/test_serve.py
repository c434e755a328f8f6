"""Server-side figures from /metrics, and the serve workload end to end."""

import json
import subprocess
import sys

import pytest

import common
import wl_serve

BEFORE = """\
# TYPE serve_request_seconds histogram
serve_request_seconds_sum{endpoint="bits"} 1.0
serve_request_seconds_count{endpoint="bits"} 100
serve_request_seconds_sum{endpoint="healthz"} 5.0
serve_request_seconds_count{endpoint="healthz"} 1
serve_batch_size_sum 100
serve_batch_size_count 100
serve_batch_flush_total{reason="timeout"} 100
serve_registry_lookups_total{result="memory"} 100
"""

AFTER = """\
serve_request_seconds_sum{endpoint="bits"} 3.0
serve_request_seconds_count{endpoint="bits"} 600
serve_request_seconds_sum{endpoint="analytic"} 1.0
serve_request_seconds_count{endpoint="analytic"} 500
serve_request_seconds_sum{endpoint="healthz"} 9.0
serve_request_seconds_count{endpoint="healthz"} 2
serve_batch_size_sum 700
serve_batch_size_count 400
serve_batch_flush_total{reason="timeout"} 250
serve_batch_flush_total{reason="size"} 150
serve_registry_lookups_total{result="memory"} 1000
serve_registry_lookups_total{result="characterized"} 2
serve_rejected_total{reason="overloaded"} 3
"""


def test_server_side_figures_are_deltas_over_estimate_endpoints():
    figures = wl_serve.server_side(wl_serve.parse_metrics(BEFORE),
                                   wl_serve.parse_metrics(AFTER), 0.005)
    # 3 s over 1000 estimate requests; health checks are left out.
    assert figures["serve.server_ms_mean"] == pytest.approx(3.0)
    assert figures["serve.transport_ms_mean"] == pytest.approx(2.0)
    assert figures["serve.batch.size_mean"] == pytest.approx(2.0)
    assert figures["serve.batch.timer_flush_ratio"] == pytest.approx(0.5)
    assert figures["serve.registry.hit_ratio"] == pytest.approx(900 / 902)
    assert figures["serve.rejected"] == 3


@pytest.mark.parametrize("trace", [0, 1])
def test_serve_workload_runs_and_checks_its_outputs(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # The request path runs no stimulus and no simulation.
        assert metrics["stimulus.s"] == metrics["simulate.s"] == 0.0
        assert metrics["classify.s"] > 0
        assert metrics["untraced.s"] >= 0
    else:
        assert metrics["work_s"] > 0 and metrics["ok_ratio"] == 1.0

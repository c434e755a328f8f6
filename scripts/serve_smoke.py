"""Smoke-test the online estimation server end to end.

The ``make serve-smoke`` target (and the CI gate): brings up a real
:class:`~repro.serve.server.EstimationServer` on an ephemeral port with a
throwaway cache, then asserts, in order:

1. a 200-request closed-loop burst across all four estimate endpoint
   families answers with **zero** 5xx and zero transport errors;
2. a served ``bits`` estimate matches a direct
   :class:`~repro.core.estimator.PowerEstimator` call on the same model
   to 1e-9;
3. ``/healthz`` reports ``ok`` and ``/metrics`` exposes non-empty
   request-latency, batch-size and batch-wait histograms;
4. a deliberate flood against a ``max_queue=2`` server is *rejected*
   with 429s instead of stalling — and still never 5xxes;
5. both servers drain cleanly (no lingering threads past ``stop()``).

Everything runs in-process (``ServerThread``) so the whole check takes a
few seconds; the HTTP traffic itself is real, over loopback sockets.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.eval import ExperimentConfig  # noqa: E402
from repro.runtime import ModelCache  # noqa: E402
from repro.serve import (  # noqa: E402
    EstimationServer,
    ModelRegistry,
    ServerThread,
    build_payloads,
    run_load_sync,
)
from repro.serve.loadgen import http_request  # noqa: E402

KIND = "ripple_adder"
WIDTH = 4
N_REQUESTS = 200
CONFIG = ExperimentConfig(n_characterization=300, seed=5)


def request_once(port: int, method: str, path: str, body: bytes = None):
    async def _go():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await http_request(reader, writer, method, path, body)
        finally:
            writer.close()

    return asyncio.run(_go())


def check_burst(port: int) -> None:
    payloads = build_payloads(KIND, WIDTH, trace_rows=16, seed=3)
    report = run_load_sync("127.0.0.1", port, payloads,
                           n_requests=N_REQUESTS, concurrency=8)
    print(f"  burst: {report.summary()}")
    assert report.n_requests == N_REQUESTS
    assert report.n_5xx == 0, f"5xx answers in burst: {report.status_counts}"
    assert report.errors == 0, "transport errors in burst"
    assert report.status_counts.get(200) == N_REQUESTS, report.status_counts


def check_parity(port: int, registry: ModelRegistry) -> None:
    served = registry.get(KIND, WIDTH)
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=(64, served.module.input_bits))
    direct = served.estimator.estimate_from_bits(bits)
    body = json.dumps({
        "kind": KIND, "width": WIDTH, "bits": bits.tolist(),
    }).encode()
    status, payload = request_once(
        port, "POST", "/v1/estimate/bits", body
    )
    assert status == 200, payload
    answer = json.loads(payload)
    deviation = abs(answer["average_charge"] - direct.average_charge)
    print(f"  parity: served {answer['average_charge']:.12f} vs direct "
          f"{direct.average_charge:.12f} (|Δ| = {deviation:.2e})")
    assert deviation <= 1e-9, f"parity broken: |Δ| = {deviation}"
    assert answer["n_cycles"] == 63


def check_health_and_metrics(port: int) -> None:
    status, payload = request_once(port, "GET", "/healthz")
    health = json.loads(payload)
    assert status == 200 and health["status"] == "ok", health
    status, payload = request_once(port, "GET", "/metrics")
    assert status == 200
    text = payload.decode()
    for metric in ("serve_request_seconds", "serve_batch_size",
                   "serve_batch_wait_seconds"):
        match = re.search(rf"^{metric}_count(?:{{[^}}]*}})? (\d+)",
                          text, re.MULTILINE)
        assert match and int(match.group(1)) > 0, (
            f"{metric} histogram is empty:\n{text}"
        )
    print("  metrics: request-latency, batch-size and batch-wait "
          "histograms populated")


def check_backpressure(cache_dir: str) -> None:
    registry = ModelRegistry(
        config=CONFIG, cache=ModelCache(cache_dir)
    )
    registry.get(KIND, WIDTH)
    # Tiny admission limit + a wide flush window: concurrent requests
    # must pile past max_queue and be turned away, not queued forever.
    server = EstimationServer(registry, max_queue=2, jobs=1,
                              batch_wait=0.05)
    with ServerThread(server) as thread:
        payloads = build_payloads(KIND, WIDTH, endpoints=("bits",),
                                  trace_rows=16, seed=9)
        started = time.perf_counter()
        report = run_load_sync("127.0.0.1", thread.port, payloads,
                               n_requests=100, concurrency=16)
        elapsed = time.perf_counter() - started
    print(f"  backpressure: {report.summary()}")
    assert report.status_counts.get(429, 0) > 0, (
        f"no 429s under flood: {report.status_counts}"
    )
    assert report.n_5xx == 0, report.status_counts
    assert elapsed < 30, f"flood stalled for {elapsed:.1f}s"


def main() -> int:
    print(f"serve smoke: {KIND}/{WIDTH}, {N_REQUESTS}-request burst")
    with tempfile.TemporaryDirectory() as cache_dir:
        registry = ModelRegistry(
            config=CONFIG, cache=ModelCache(cache_dir)
        )
        server = EstimationServer(registry, max_queue=256, jobs=2)
        thread = ServerThread(server).start()
        try:
            check_burst(thread.port)
            check_parity(thread.port, registry)
            check_health_and_metrics(thread.port)
        finally:
            thread.stop()
        assert not thread._thread.is_alive(), "server thread leaked"
        check_backpressure(cache_dir)
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

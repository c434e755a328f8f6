"""End-to-end server tests: real HTTP over loopback sockets.

One shared ``ServerThread`` (module scope) answers the happy-path tests;
backpressure and deadline behavior get dedicated short-lived servers.
No pytest-asyncio: the client side runs under ``asyncio.run``.
"""

import asyncio
import json
import re

import numpy as np
import pytest

from repro.eval import ExperimentConfig
from repro.serve import (
    EstimationServer,
    ModelRegistry,
    ServerThread,
    build_payloads,
    run_load_sync,
)
from repro.serve.loadgen import http_request

from .conftest import SOCKET_TIMEOUT, request_once as request

CONFIG = ExperimentConfig(n_characterization=300, seed=5)
KIND, WIDTH = "ripple_adder", 4

# Real sockets: bound the whole module so a wedged server fails loudly
# (enforced by pytest-timeout in CI; inert without the plugin).
pytestmark = pytest.mark.timeout(SOCKET_TIMEOUT)


@pytest.fixture(scope="module")
def server():
    registry = ModelRegistry(config=CONFIG, cache=None)
    instance = EstimationServer(registry, max_queue=64, jobs=2)
    with ServerThread(instance) as thread:
        # Materialize the model once so individual tests stay fast.
        registry.get(KIND, WIDTH)
        yield thread


def _bits(rows=16, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, 2 * WIDTH)).tolist()


def test_bits_endpoint_matches_direct_estimator(server):
    bits = _bits()
    status, answer = request(server.port, "POST", "/v1/estimate/bits", {
        "kind": KIND, "width": WIDTH, "bits": bits,
    })
    assert status == 200
    direct = server.server.registry.get(
        KIND, WIDTH
    ).estimator.estimate_from_bits(np.asarray(bits))
    assert abs(answer["average_charge"] - direct.average_charge) <= 1e-9
    assert answer["method"] == "trace"
    assert answer["model"] == f"{KIND}/{WIDTH}"
    assert answer["source"] == "characterized"
    assert answer["n_cycles"] == len(bits) - 1
    assert "cycle_charge" not in answer


def test_bits_per_cycle_payload(server):
    bits = _bits(rows=6)
    status, answer = request(server.port, "POST", "/v1/estimate/bits", {
        "kind": KIND, "width": WIDTH, "bits": bits, "per_cycle": True,
    })
    assert status == 200
    assert len(answer["cycle_charge"]) == 5
    assert answer["average_charge"] == pytest.approx(
        float(np.mean(answer["cycle_charge"]))
    )


def test_streams_endpoint(server):
    words = [[0, 3, -5, 7, -8], [1, -2, 6, -7, 4]]
    status, answer = request(server.port, "POST", "/v1/estimate/streams", {
        "kind": KIND, "width": WIDTH, "words": words,
    })
    assert status == 200
    assert answer["n_cycles"] == 4


def test_distribution_endpoint(server):
    pmf = [1.0 / 9] * 9  # 2*WIDTH inputs -> 9 Hd classes
    status, answer = request(
        server.port, "POST", "/v1/estimate/distribution",
        {"kind": KIND, "width": WIDTH, "distribution": pmf},
    )
    assert status == 200
    assert answer["method"] == "distribution"


def test_analytic_endpoint(server):
    status, answer = request(
        server.port, "POST", "/v1/estimate/analytic",
        {
            "kind": KIND, "width": WIDTH,
            "operand_stats": [
                {"mean": 0.5, "variance": 12.0, "rho": 0.2},
                {"mean": -1.0, "variance": 9.0, "rho": -0.4},
            ],
        },
    )
    assert status == 200
    assert answer["average_charge"] > 0


def test_validation_errors(server):
    cases = [
        ("/v1/estimate/bits", {"width": WIDTH, "bits": _bits()}),
        ("/v1/estimate/bits", {"kind": KIND, "width": 0, "bits": _bits()}),
        ("/v1/estimate/bits", {"kind": KIND, "width": True, "bits": _bits()}),
        ("/v1/estimate/bits",
         {"kind": KIND, "width": WIDTH, "bits": [[0, 1]]}),
        ("/v1/estimate/bits",
         {"kind": KIND, "width": WIDTH, "bits": [[2] * 8, [0] * 8]}),
        ("/v1/estimate/streams",
         {"kind": KIND, "width": WIDTH, "words": "zap"}),
        ("/v1/estimate/streams",
         {"kind": KIND, "width": WIDTH, "words": [[1], [1], [1]]}),
        ("/v1/estimate/distribution",
         {"kind": KIND, "width": WIDTH, "distribution": []}),
        ("/v1/estimate/analytic",
         {"kind": KIND, "width": WIDTH, "operand_stats": [7]}),
    ]
    for path, payload in cases:
        status, answer = request(server.port, "POST", path, payload)
        assert status == 400, (path, payload, answer)
        assert answer["error"]["code"] == "bad_request"
        assert isinstance(answer["error"]["message"], str)


def test_unknown_kind_is_404(server):
    status, answer = request(server.port, "POST", "/v1/estimate/bits", {
        "kind": "warp_core", "width": 4, "bits": _bits(),
    })
    assert status == 404
    assert answer["error"]["code"] == "unknown_kind"


def test_unknown_route_and_method(server):
    status, answer = request(server.port, "GET", "/v2/nothing")
    assert status == 404
    status, answer = request(server.port, "DELETE", "/healthz")
    assert status == 405


def test_malformed_json_is_400(server):
    async def go():
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        try:
            return await http_request(
                reader, writer, "POST", "/v1/estimate/bits", b"{nope"
            )
        finally:
            writer.close()

    status, raw = asyncio.run(go())
    assert status == 400
    assert json.loads(raw)["error"]["code"] == "bad_request"


def test_healthz(server):
    status, health = request(server.port, "GET", "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["models_loaded"] >= 1
    assert health["max_queue"] == 64


def test_models_listing(server):
    status, models = request(server.port, "GET", "/v1/models")
    assert status == 200
    assert any(
        m["kind"] == KIND and m["width"] == WIDTH for m in models["loaded"]
    )
    assert KIND in models["kinds"]


def test_metrics_exposition(server):
    status, text = request(server.port, "GET", "/metrics")
    assert status == 200
    assert isinstance(text, str)
    assert "# TYPE serve_requests_total counter" in text
    assert "serve_request_seconds_bucket" in text
    assert 'serve_requests_total{endpoint="bits",status="200"}' in text
    # The compiled engine's backend is always on the page.
    assert "# TYPE repro_native_backend gauge" in text
    assert re.search(
        r'repro_native_backend\{status="(native|numpy|disabled)"\} 1', text
    )


def test_backpressure_429_instead_of_stalling():
    """Over-queue load is rejected with 429 + Retry-After, never stalls."""
    registry = ModelRegistry(config=CONFIG, cache=None)
    registry.get(KIND, WIDTH)
    instance = EstimationServer(
        registry, max_queue=2, jobs=1, batch_wait=0.05
    )
    with ServerThread(instance) as thread:
        payloads = build_payloads(KIND, WIDTH, endpoints=("bits",),
                                  trace_rows=8, seed=1)
        report = run_load_sync("127.0.0.1", thread.port, payloads,
                               n_requests=60, concurrency=12)
    assert report.status_counts.get(429, 0) > 0, report.status_counts
    assert report.n_5xx == 0
    assert report.errors == 0

    # And the Retry-After header is actually on the wire.
    instance2 = EstimationServer(
        registry, max_queue=1, jobs=1, batch_wait=0.2
    )

    async def race():
        r1, w1 = await asyncio.open_connection("127.0.0.1", thread2.port)
        r2, w2 = await asyncio.open_connection("127.0.0.1", thread2.port)
        body = json.dumps({
            "kind": KIND, "width": WIDTH, "bits": _bits(rows=8),
        }).encode()
        try:
            slow = asyncio.create_task(
                http_request(r1, w1, "POST", "/v1/estimate/bits", body)
            )
            await asyncio.sleep(0.05)  # let it occupy the queue slot
            status, _ = await http_request(
                r2, w2, "POST", "/v1/estimate/bits", body
            )
            await slow
            return status
        finally:
            w1.close()
            w2.close()

    with ServerThread(instance2) as thread2:
        assert asyncio.run(race()) == 429


def test_deadline_yields_504():
    registry = ModelRegistry(config=CONFIG, cache=None)
    registry.get(KIND, WIDTH)
    # Deadline far below the batch window: the request must time out.
    instance = EstimationServer(
        registry, request_timeout=0.01, batch_wait=0.5, jobs=1
    )
    with ServerThread(instance) as thread:
        status, answer = request(thread.port, "POST", "/v1/estimate/bits", {
            "kind": KIND, "width": WIDTH, "bits": _bits(rows=8),
        })
    assert status == 504
    assert answer["error"]["code"] == "deadline_exceeded"


# ----------------------------------------------------------------------
# Resident models are looked up on the event loop, not in a load thread
# ----------------------------------------------------------------------
@pytest.fixture
def no_load_pool(server, monkeypatch):
    """The shared server with its load pool refusing all work."""
    def refuse(*args, **kwargs):
        raise AssertionError("request went through the serve-load pool")

    monkeypatch.setattr(server.server._load_pool, "submit", refuse)
    return server


def test_resident_model_skips_load_pool(no_load_pool):
    metrics = no_load_pool.server.metrics
    memory_before = metrics.registry_lookups_total.value(result="memory")
    waits_before = metrics.batch_wait_seconds.count()
    status, answer = request(no_load_pool.port, "POST", "/v1/estimate/bits",
                             {"kind": KIND, "width": WIDTH, "bits": _bits()})
    assert status == 200, answer
    assert answer["source"] != "regressed"
    assert (
        metrics.registry_lookups_total.value(result="memory")
        - memory_before
    ) == 1
    assert metrics.batch_wait_seconds.count() - waits_before == 1


@pytest.mark.parametrize("payload, status, body", [
    ({"kind": "warp_core", "width": WIDTH},
     404, {"code": "unknown_kind",
           "message": "unknown module kind 'warp_core'"}),
    ({"kind": KIND, "width": WIDTH, "mode": "fast"},
     400, {"code": "bad_request",
           "message": "mode must be auto/exact/regressed, got 'fast'"}),
    ({"kind": KIND, "width": 32, "enhanced": True},
     400, {"code": "bad_request",
           "message": "the width regression parameterizes basic models "
                      "only; request enhanced=false or an exact width"}),
], ids=["unknown-kind", "bad-mode", "regressed-enhanced"])
def test_lookup_errors_answer_on_the_loop(no_load_pool, payload, status,
                                          body):
    """Key-step rejections keep their status and body, with no load."""
    got_status, answer = request(no_load_pool.port, "POST",
                                 "/v1/estimate/bits",
                                 {**payload, "bits": _bits()})
    assert got_status == status
    assert answer == {"error": body}


def test_graceful_shutdown_leaves_no_thread():
    registry = ModelRegistry(config=CONFIG, cache=None)
    instance = EstimationServer(registry)
    thread = ServerThread(instance).start()
    port = thread.port
    status, _ = request(port, "GET", "/healthz")
    assert status == 200
    thread.stop()
    assert not thread._thread.is_alive()
    with pytest.raises(OSError):
        asyncio.run(asyncio.open_connection("127.0.0.1", port))


def test_drain_force_closes_stalled_keepalive_client():
    """drain(timeout) must *enforce* the timeout.

    A keep-alive client that opens a connection and then goes silent
    (and another that stalls mid-request, promising a body it never
    sends) used to keep the connection — and, on newer asyncio, the
    whole drain — alive indefinitely.  Now drain returns within the
    deadline and the stragglers see their connection cut.
    """
    import time

    registry = ModelRegistry(config=CONFIG, cache=None)
    registry.get(KIND, WIDTH)
    instance = EstimationServer(registry, jobs=1)

    async def scenario():
        await instance.start()
        port = instance.port
        # Stalled client A: connects, never sends a byte.
        reader_a, writer_a = await asyncio.open_connection("127.0.0.1", port)
        # Stalled client B: sends headers claiming a body, then stops —
        # the handler is parked inside readexactly().
        reader_b, writer_b = await asyncio.open_connection("127.0.0.1", port)
        writer_b.write(
            b"POST /v1/estimate/bits HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 10\r\n\r\n"
        )
        await writer_b.drain()
        await asyncio.sleep(0.1)
        assert len(instance._connections) == 2

        started = time.perf_counter()
        await instance.drain(timeout=0.5)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"drain ignored its deadline ({elapsed:.1f}s)"

        # Both stalled clients must observe the force-close promptly.
        for reader in (reader_a, reader_b):
            try:
                data = await asyncio.wait_for(reader.read(1), timeout=2.0)
                assert data == b"", "connection survived the drain"
            except (ConnectionError, asyncio.TimeoutError) as exc:
                assert not isinstance(exc, asyncio.TimeoutError), (
                    "stalled connection still open after drain"
                )
        for writer in (writer_a, writer_b):
            writer.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Per-request tracing: X-Repro-Trace opt-in (see docs/OBSERVABILITY.md)
# ----------------------------------------------------------------------
def traced_request(port, method, path, payload=None, headers=None):
    body = json.dumps(payload).encode() if payload is not None else None

    async def go():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await http_request(
                reader, writer, method, path, body, headers=headers
            )
        finally:
            writer.close()

    status, raw = asyncio.run(go())
    return status, json.loads(raw) if raw.startswith(b"{") else raw.decode()


def test_untraced_request_has_no_trace_payload(server):
    status, answer = request(server.port, "POST", "/v1/estimate/bits", {
        "kind": KIND, "width": WIDTH, "bits": _bits(rows=6),
    })
    assert status == 200
    assert "trace" not in answer


def test_traced_request_returns_span_summary_and_chrome(server):
    from repro.obs import validate_chrome

    bits = _bits(rows=8)
    status, answer = traced_request(
        server.port, "POST", "/v1/estimate/bits",
        {"kind": KIND, "width": WIDTH, "bits": bits},
        headers={"X-Repro-Trace": "1"},
    )
    assert status == 200
    # The estimate itself is unchanged by tracing.
    direct = server.server.registry.get(
        KIND, WIDTH
    ).estimator.estimate_from_bits(np.asarray(bits))
    assert abs(answer["average_charge"] - direct.average_charge) <= 1e-9

    trace = answer["trace"]
    assert trace["trace_id"]
    spans = trace["spans"]
    assert "serve.request" in spans
    assert "batch.flush" in spans  # thread-pool handoff kept the context
    assert spans["serve.request"]["count"] == 1
    assert validate_chrome(trace["chrome"]) == []

    # The traced exemplar also lands on /metrics.
    status, page = request(server.port, "GET", "/metrics")
    assert status == 200
    assert "serve_traced_requests_total" in page
    assert 'serve_trace_span_seconds{span="serve.request"}' in page


def test_trace_header_false_values_disable(server):
    status, answer = traced_request(
        server.port, "POST", "/v1/estimate/bits",
        {"kind": KIND, "width": WIDTH, "bits": _bits(rows=6)},
        headers={"X-Repro-Trace": "0"},
    )
    assert status == 200
    assert "trace" not in answer

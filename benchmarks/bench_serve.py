"""Serving-layer benchmark: micro-batched vs per-request estimation.

Short trace requests are dominated by fixed per-call overhead (argument
validation, classification setup), not numpy work — the regime the
:class:`~repro.serve.batching.MicroBatcher` targets.  This benchmark
measures that effect twice on a 16-bit CSA multiplier model:

* **engine level** — ``estimate_batch_from_bits`` over coalesced batches
  vs a per-request ``estimate_from_bits`` loop, results checked for
  exact parity (the batch API drops the spurious boundary cycles);
* **HTTP level** — closed-loop load through the full asyncio server,
  once with the default 64-deep micro-batcher and once with
  ``max_batch=1`` (coalescing disabled).

A third mode measures the **fleet**: ``--workers 1,2,4,8`` runs the
closed-loop flood against the multi-process supervisor at each worker
count (model pre-warmed in the parent so workers inherit it
copy-on-write, and the first traced request is asserted to contain zero
characterization spans), recording p50/p99/throughput per count.  On a
single-core container the scaling curve is flat — the record keeps the
measured numbers either way; multi-core hosts see the near-linear curve.

Appends the measurement to ``BENCH_serve.json`` at the repository root.
Entry points mirror ``bench_simulate.py``: ``make bench-serve`` for the
standalone JSON-writing run, ``pytest benchmarks/ --benchmark-only`` for
the pytest-benchmark hooks.
"""

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

MODULE_KIND = "csa_multiplier"
MODULE_WIDTH = 16
SMALL = os.environ.get("REPRO_BENCH_SCALE", "full") == "small"
#: Patterns for the one-off characterization; model quality is irrelevant
#: here, the benchmark only exercises the serving path.
N_CHARACTERIZATION = 300 if SMALL else 800
#: Rows per request — short traces, where batching pays.
TRACE_ROWS = 24
N_REQUESTS = 256 if SMALL else 1024
BATCH = 64
REPEATS = 3 if SMALL else 5
HTTP_REQUESTS = 200 if SMALL else 600
HTTP_CONCURRENCY = 16

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _make_served(seed=5):
    """Materialize the benchmark model through the registry (no cache)."""
    from repro.eval import ExperimentConfig
    from repro.serve import ModelRegistry

    config = ExperimentConfig(n_characterization=N_CHARACTERIZATION,
                              seed=seed)
    registry = ModelRegistry(config=config, cache=None)
    return registry, registry.get(MODULE_KIND, MODULE_WIDTH)


def _request_matrices(served, n_requests=N_REQUESTS, seed=11):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2, size=(TRACE_ROWS, served.module.input_bits))
        for _ in range(n_requests)
    ]


def _best_of(fn, repeats=REPEATS):
    result, elapsed = None, float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - started)
    return result, elapsed


def run_engine_comparison(served, matrices, repeats=REPEATS):
    """Per-request loop vs coalesced batches; exact-parity checked."""
    estimator = served.estimator

    def unbatched():
        return [estimator.estimate_from_bits(m) for m in matrices]

    def batched():
        results = []
        for start in range(0, len(matrices), BATCH):
            results.extend(estimator.estimate_batch_from_bits(
                matrices[start:start + BATCH]
            ))
        return results

    loop_results, loop_seconds = _best_of(unbatched, repeats)
    batch_results, batch_seconds = _best_of(batched, repeats)
    worst = max(
        abs(a.average_charge - b.average_charge)
        for a, b in zip(loop_results, batch_results)
    )
    assert worst < 1e-9, f"batch parity broken: max deviation {worst}"
    return {
        "n_requests": len(matrices),
        "trace_rows": TRACE_ROWS,
        "batch": BATCH,
        "repeats": repeats,
        "unbatched_seconds": loop_seconds,
        "batched_seconds": batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "unbatched_rps": len(matrices) / loop_seconds,
        "batched_rps": len(matrices) / batch_seconds,
    }


def run_http_comparison(n_requests=HTTP_REQUESTS,
                        concurrency=HTTP_CONCURRENCY, seed=5):
    """Closed-loop load through the full server, batched vs max_batch=1."""
    from repro.eval import ExperimentConfig
    from repro.serve import (
        EstimationServer,
        ModelRegistry,
        ServerThread,
        build_payloads,
        run_load_sync,
    )

    payloads = build_payloads(
        MODULE_KIND, MODULE_WIDTH, endpoints=("bits",),
        trace_rows=TRACE_ROWS, seed=seed,
    )
    out = {}
    for label, max_batch in (("batched", BATCH), ("unbatched", 1)):
        config = ExperimentConfig(n_characterization=N_CHARACTERIZATION,
                                  seed=seed)
        registry = ModelRegistry(config=config, cache=None)
        registry.get(MODULE_KIND, MODULE_WIDTH)  # pre-warm: no load time
        server = EstimationServer(registry, max_queue=4096, jobs=2,
                                  max_batch=max_batch)
        with ServerThread(server) as thread:
            report = run_load_sync(
                server.host, thread.port, payloads,
                n_requests=n_requests, concurrency=concurrency,
            )
        assert report.n_5xx == 0 and report.errors == 0, report.summary()
        out[label] = report.to_dict()
        # serve_batch_wait_seconds has one observation per batched
        # request, serve_batch_size one per flush.
        out[label]["batch_size_mean"] = (
            server.metrics.batch_wait_seconds.count()
            / max(server.metrics.batch_size.count(), 1)
        )
    out["http_speedup"] = (
        out["batched"]["throughput_rps"] / out["unbatched"]["throughput_rps"]
    )
    return out


def traced_exemplar(seed=5):
    """One ``X-Repro-Trace: 1`` request; its span summary lands in the
    bench record so the trajectory file shows where serve time goes."""
    import asyncio

    from repro.eval import ExperimentConfig
    from repro.serve import EstimationServer, ModelRegistry, ServerThread
    from repro.serve.loadgen import http_request

    config = ExperimentConfig(n_characterization=N_CHARACTERIZATION,
                              seed=seed)
    registry = ModelRegistry(config=config, cache=None)
    served = registry.get(MODULE_KIND, MODULE_WIDTH)
    bits = _request_matrices(served, n_requests=1)[0].tolist()
    body = json.dumps({
        "kind": MODULE_KIND, "width": MODULE_WIDTH, "bits": bits,
    }).encode()
    server = EstimationServer(registry, jobs=2)

    async def go(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await http_request(
                reader, writer, "POST", "/v1/estimate/bits", body,
                headers={"X-Repro-Trace": "1"},
            )
        finally:
            writer.close()

    with ServerThread(server) as thread:
        status, raw = asyncio.run(go(thread.port))
    assert status == 200, raw
    return json.loads(raw)["trace"]["spans"]


def run_fleet_capacity(worker_counts=(1, 2, 4, 8),
                       n_requests=HTTP_REQUESTS,
                       concurrency=HTTP_CONCURRENCY, seed=5):
    """Closed-loop flood against the fleet at each worker count.

    One registry is warmed once in this (parent) process; every fleet
    inherits it through fork, so no run pays characterization and the
    counts compare pure serving capacity.  Returns per-count latency and
    throughput plus each count's speedup over the 1-worker baseline.
    """
    import asyncio

    from repro.eval import ExperimentConfig
    from repro.serve import (
        ModelRegistry,
        ServeFleet,
        WarmupManifest,
        build_payloads,
        run_load_sync,
        warm_registry,
    )
    from repro.serve.loadgen import http_request

    config = ExperimentConfig(n_characterization=N_CHARACTERIZATION,
                              seed=seed)
    registry = ModelRegistry(config=config, cache=None)
    manifest = WarmupManifest.from_dict({
        "entries": [{"kind": MODULE_KIND, "widths": [MODULE_WIDTH]}],
    })
    warmup = warm_registry(registry, manifest)
    assert warmup.ok, warmup.summary()
    served = registry.get(MODULE_KIND, MODULE_WIDTH)
    payloads = build_payloads(
        MODULE_KIND, MODULE_WIDTH, endpoints=("bits",),
        trace_rows=TRACE_ROWS, seed=seed,
    )

    async def traced_first_request(port):
        bits = _request_matrices(served, n_requests=1, seed=seed)[0]
        body = json.dumps({
            "kind": MODULE_KIND, "width": MODULE_WIDTH,
            "bits": bits.tolist(),
        }).encode()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            status, raw = await http_request(
                reader, writer, "POST", "/v1/estimate/bits", body,
                headers={"X-Repro-Trace": "1"},
            )
        finally:
            writer.close()
        assert status == 200, raw
        return json.loads(raw)["trace"]["spans"]

    out = {"counts": {}, "first_request_spans": None}
    for workers in worker_counts:
        fleet = ServeFleet(
            registry, workers=workers,
            server_options={"max_queue": 4096, "jobs": 2},
        )
        with fleet:
            # Warm-inheritance contract: the fleet's first request must
            # resolve from the forked-in memory tier — zero
            # characterization or materialization spans in its trace.
            spans = asyncio.run(traced_first_request(fleet.port))
            cold = [name for name in spans
                    if "characterize" in name or "materialize" in name]
            assert not cold, f"first request was not warm: {cold}"
            if out["first_request_spans"] is None:
                out["first_request_spans"] = spans
            report = run_load_sync(
                "127.0.0.1", fleet.port, payloads,
                n_requests=n_requests, concurrency=concurrency,
            )
        assert report.n_5xx == 0 and not report.errors, report.summary()
        out["counts"][str(workers)] = {
            "strategy": fleet.strategy,
            **report.to_dict(),
        }
    baseline = out["counts"][str(worker_counts[0])]["throughput_rps"]
    for workers in worker_counts:
        entry = out["counts"][str(workers)]
        entry["speedup_vs_1"] = entry["throughput_rps"] / baseline
    return out


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_estimate_unbatched(benchmark):
    from .conftest import run_once

    _, served = _make_served()
    matrices = _request_matrices(served, n_requests=128)
    results = run_once(
        benchmark,
        lambda: [served.estimator.estimate_from_bits(m) for m in matrices],
    )
    assert len(results) == len(matrices)


def test_estimate_batched(benchmark):
    from .conftest import run_once

    _, served = _make_served()
    matrices = _request_matrices(served, n_requests=128)
    results = run_once(
        benchmark,
        lambda: served.estimator.estimate_batch_from_bits(matrices),
    )
    assert len(results) == len(matrices)


def test_batched_speedup_floor():
    """The acceptance gate: coalescing must beat per-request by >= 3x."""
    _, served = _make_served()
    matrices = _request_matrices(served, n_requests=256)
    record = run_engine_comparison(served, matrices, repeats=3)
    assert record["speedup"] >= 3.0, (
        f"micro-batching speedup {record['speedup']:.2f}x below 3x floor"
    )


# ----------------------------------------------------------------------
def append_entry(record, path=BENCH_FILE):
    entries = []
    if path.exists():
        try:
            entries = json.loads(path.read_text())
        except json.JSONDecodeError:
            entries = []
    entries.append({"timestamp": time.time(), **record})
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return path


def run_fleet_benchmark(worker_counts):
    print(
        f"fleet capacity benchmark: {MODULE_KIND}/{MODULE_WIDTH}, "
        f"{HTTP_REQUESTS} requests x {TRACE_ROWS} rows at "
        f"concurrency {HTTP_CONCURRENCY}, workers {list(worker_counts)}"
    )
    fleet = run_fleet_capacity(worker_counts)
    for workers in worker_counts:
        entry = fleet["counts"][str(workers)]
        print(
            f"  {workers} worker(s) [{entry['strategy']}]: "
            f"{entry['throughput_rps']:7.0f} req/s | "
            f"p50 {entry['p50_ms']:.2f} ms | p99 {entry['p99_ms']:.2f} ms"
            f" | {entry['speedup_vs_1']:.2f}x vs {worker_counts[0]}"
        )
    print("  first request warm: zero characterize/materialize spans")
    path = append_entry({
        "module": f"{MODULE_KIND}/{MODULE_WIDTH}",
        "mode": "fleet",
        "n_cpus": os.cpu_count(),
        "fleet": fleet,
    })
    print(f"  recorded in {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        help="comma-separated worker counts; runs the fleet capacity "
             "benchmark instead of the batching comparison (e.g. 1,2,4,8)",
    )
    args = parser.parse_args(argv)
    if args.workers:
        counts = tuple(int(w) for w in args.workers.split(","))
        run_fleet_benchmark(counts)
        return
    print(
        f"serving benchmark: {MODULE_KIND}/{MODULE_WIDTH}, "
        f"{N_REQUESTS} requests x {TRACE_ROWS} rows, batch={BATCH}, "
        f"best of {REPEATS}"
    )
    _, served = _make_served()
    matrices = _request_matrices(served)
    engine = run_engine_comparison(served, matrices)
    print(f"  unbatched: {engine['unbatched_rps']:10.0f} req/s")
    print(f"  batched:   {engine['batched_rps']:10.0f} req/s")
    print(f"  speedup:   {engine['speedup']:10.2f}x  (parity verified)")
    http = run_http_comparison()
    print(f"  http batched:   {http['batched']['throughput_rps']:7.0f} req/s"
          f"  (p99 {http['batched']['p99_ms']:.2f} ms, mean batch "
          f"{http['batched']['batch_size_mean']:.2f})")
    print(f"  http unbatched: {http['unbatched']['throughput_rps']:7.0f} req/s"
          f"  (p99 {http['unbatched']['p99_ms']:.2f} ms)")
    print(f"  http speedup:   {http['http_speedup']:7.2f}x")
    spans = traced_exemplar()
    print("  traced exemplar: " + ", ".join(
        f"{name} {entry['total_s'] * 1e3:.2f}ms"
        for name, entry in sorted(spans.items())
    ))
    from repro.circuit.native import native_status

    record = {
        "module": f"{MODULE_KIND}/{MODULE_WIDTH}",
        "native_backend": native_status(),
        "engine": engine,
        "http": http,
        "span_summary": spans,
    }
    path = append_entry(record)
    print(f"  recorded in {path}")
    if engine["speedup"] < 3.0:
        raise SystemExit(
            f"FAIL: micro-batching speedup {engine['speedup']:.2f}x "
            f"below the 3x acceptance floor"
        )


if __name__ == "__main__":
    main()

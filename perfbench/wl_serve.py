"""Workload ``serve-mixed``: the estimation server under a closed loop.

``repro-power serve --no-cache --warmup <manifest>`` runs in its own
process with csa_multiplier/16 and ripple_adder/16 built before it answers
``/healthz``; building them is set-up time.  A closed loop of keep-alive
connections (no more than the CPU count) then sends ``build_payloads``
traffic: bits, streams, distribution and analytic requests with 24-row
traces across both models.  The loop is closed because callers of the
estimation API wait for each reply.  One unit of work is a block of
:data:`BLOCK` requests; one operation is one request.

The whole workload (this process, the server and the load) runs on one
CPU.  On a 2-vCPU virtual machine, a latency-bound loop spread over both
vCPUs kept waking the idle one, the hypervisor took 10-24% of the CPU time
(steal) and throughput moved by up to 2.4x between runs; on one CPU steal
stayed near 3% and the loop ran faster.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import layers
from common import (ROOT, SETUP_REPEATS, Context, HostSpeed, more_units,
                    program_env, sub_seed)
from record import percentile, samples_for

HOST = "127.0.0.1"
MODELS = (("csa_multiplier", 16), ("ripple_adder", 16))
#: Patterns per warmup characterization (the CLI default, stated).
PATTERNS = 2000
#: Requests per unit of work.  Short blocks let the median step over the
#: bursts in which the host takes the CPU away (steal time): the reported
#: block time and latency percentiles are medians over blocks.
BLOCK = 250
CONNECTIONS = min(2, os.cpu_count() or 1)
START_TIMEOUT = 120.0
SERVING = re.compile(r"serving on http://[^:]+:(\d+)")
PARITY_TOLERANCE = 1e-9


class Server:
    """One ``repro-power serve`` child process."""

    def __init__(self, ctx: Context, seed: int, tag: str,
                 dump: Optional[Path] = None):
        workdir = ctx.scratch(f"server-{tag}")
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps({"entries": [
            {"kind": kind, "widths": [width]} for kind, width in MODELS
        ]}))
        argv = ["serve", "--host", HOST, "--port", "0", "--no-cache",
                "--warmup", str(manifest), "--patterns", str(PATTERNS),
                "--seed", str(seed)]
        if dump is None:
            command = [sys.executable, "-m", "repro.cli", *argv]
        else:
            command = [sys.executable,
                       str(Path(__file__).with_name("serve_traced.py")),
                       str(dump), *argv]
        self.log_path = workdir / "server.log"
        self._log = open(self.log_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            env=program_env(), cwd=ROOT,
        )
        try:
            self.port = self._wait_for_port(started)
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_for_port(self, started: float) -> int:
        while time.perf_counter() - started < START_TIMEOUT:
            match = SERVING.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"server did not start:\n{self.log_path.read_text()[-2000:]}")

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < START_TIMEOUT:
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz with 200")

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        utime, stime = fields.rsplit(")", 1)[1].split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _payloads(seed: int) -> List[Tuple[str, bytes]]:
    from repro.serve.loadgen import build_payloads

    mixes = [
        build_payloads(kind, width, trace_rows=24, seed=seed + index)
        for index, (kind, width) in enumerate(MODELS)
    ]
    return [payload for pair in zip(*mixes) for payload in pair]


def _closed_loop(ctx: Context, server: Server, payloads, seconds: float,
                 needed: int = samples_for(90),
                 speed: Optional[HostSpeed] = None):
    """Blocks of requests for ``seconds`` and at least ``needed`` requests.

    Returns (block seconds, request latencies of each block).  With
    ``speed``, a host-speed sample follows each block, and all times are
    scaled by one factor for the whole loop: blocks are too short for a
    sample each to be steady.
    """
    from repro.serve import loadgen

    blocks: List[float] = []
    latencies: List[List[float]] = []
    statuses: Counter = Counter()
    errors = 0
    started = time.perf_counter()
    while more_units(started, seconds, len(blocks),
                     sum(map(len, latencies)), needed):
        report = loadgen.run_load_sync(HOST, server.port, payloads,
                                       n_requests=BLOCK,
                                       concurrency=CONNECTIONS)
        blocks.append(report.elapsed_seconds)
        latencies.append(list(report.latencies))
        statuses.update(report.status_counts)
        errors += report.errors
        if speed:
            speed.sample()
    if speed:
        factor = speed.factor()
        blocks = [factor * t for t in blocks]
        latencies = [[factor * t for t in block] for block in latencies]
    attempted = len(blocks) * BLOCK
    failed = attempted - statuses.get(200, 0)
    ctx.tally.operations(attempted, failed)
    ctx.check(failed == 0,
              f"{failed} requests failed: {dict(statuses)}, {errors} errors")
    return blocks, latencies


def _check_parity(ctx: Context, server: Server, seed: int) -> None:
    """Served estimates equal a direct estimator call on the same model."""
    import numpy as np
    from repro.eval import ExperimentConfig
    from repro.serve import ModelRegistry

    registry = ModelRegistry(
        config=ExperimentConfig(n_characterization=PATTERNS, seed=seed),
        cache=None,
    )
    rng = np.random.default_rng(seed)
    for kind, width in MODELS:
        served = registry.get(kind, width)
        m = served.module.input_bits
        for _ in range(4):
            bits = rng.integers(0, 2, size=(24, m))
            pmf = rng.random(m + 1)
            pmf /= pmf.sum()
            cases = (
                ("bits", {"bits": bits.tolist()},
                 served.estimator.estimate_from_bits(bits)),
                ("distribution", {"distribution": pmf.tolist()},
                 served.estimator.estimate_from_distribution(pmf)),
            )
            for family, fields, direct in cases:
                body = json.dumps({"kind": kind, "width": width, **fields})
                status, raw = server.request(
                    "POST", f"/v1/estimate/{family}", body.encode(),
                    {"Content-Type": "application/json"})
                served_charge = (json.loads(raw)["average_charge"]
                                 if status == 200 else float("nan"))
                ctx.check(
                    abs(served_charge - direct.average_charge)
                    <= PARITY_TOLERANCE,
                    f"{kind}/{width} {family}: served {served_charge!r} "
                    f"vs direct {direct.average_charge!r}",
                )


def scrape(server: Server) -> Dict[Tuple[str, str], float]:
    status, raw = server.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_metrics(raw.decode())


def parse_metrics(text: str) -> Dict[Tuple[str, str], float]:
    """Prometheus text as {(series name, label text): value}."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, labels = head.partition("{")
        series[(name, labels.rstrip("}"))] = float(value)
    return series


def _total(series, name: str, label: str = "") -> float:
    return sum(value for (series_name, labels), value in series.items()
               if series_name == name and label in labels)


def _client_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(ctx: Context) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Returns (end-to-end metrics, per-layer metrics)."""
    # Before numpy starts its thread pool, so every thread and child
    # process inherits the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import repro.serve  # noqa: F401 — imports before timing

    seed = sub_seed(ctx.seed, 0)
    payloads = _payloads(seed)
    if ctx.trace:
        return {}, _traced(ctx, seed, payloads)
    setups = []
    setup_speed = HostSpeed()
    for index in range(SETUP_REPEATS):
        server = Server(ctx, seed, f"setup-{index}")
        setups.append(server.setup_s)
        setup_speed.sample()
        if index < SETUP_REPEATS - 1:
            server.stop()
    try:
        ctx.speed = HostSpeed()
        blocks, latencies = _closed_loop(ctx, server, payloads, ctx.seconds,
                                         speed=ctx.speed)
        _check_parity(ctx, server, seed)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "setup_s": setup_speed.factor() * median(setups),
        "work_s": median(blocks),
        "op_p50_ms": 1e3 * median(percentile(b, 50) for b in latencies),
        "op_p90_ms": 1e3 * median(percentile(b, 90) for b in latencies),
        "peak_rss_mb": rss,
    }, {}


def _traced(ctx: Context, seed: int, payloads) -> Dict[str, float]:
    from repro.serve import loadgen

    out: Dict[str, float] = {}
    server = Server(ctx, seed, "plain")
    try:
        before = scrape(server)
        cpu = server.cpu_seconds(), _client_cpu()
        plain_blocks, per_block = _closed_loop(
            ctx, server, payloads, ctx.seconds / 2, samples_for(99))
        latencies = [t for block in per_block for t in block]
        n = len(latencies)
        out["serve.server_cpu_ms_per_req"] = (
            1e3 * (server.cpu_seconds() - cpu[0]) / n)
        out["loadgen.cpu_ms_per_req"] = 1e3 * (_client_cpu() - cpu[1]) / n
        after = scrape(server)
        out.update(server_side(before, after, sum(latencies) / n))
        out["serve.p99_ms"] = 1e3 * percentile(latencies, 99)
        for family in loadgen.ENDPOINTS:
            subset = [p for p in payloads if p[0].endswith("/" + family)]
            report = loadgen.run_load_sync(HOST, server.port, subset,
                                           n_requests=200,
                                           concurrency=CONNECTIONS)
            ctx.tally.operations(200, 200 - report.status_counts.get(200, 0))
            out[f"serve.{family}.p50_ms"] = report.percentile(50) * 1e3
        out.update(_sampled_traces(ctx, server, payloads))
        _check_parity(ctx, server, seed)
    finally:
        server.stop()

    dump = ctx.scratch("layers") / "server-layers.json"
    server = Server(ctx, seed, "traced", dump=dump)
    try:
        started = time.perf_counter()
        traced_blocks, _ = _closed_loop(ctx, server, payloads,
                                        ctx.seconds / 2)
        traced_s = time.perf_counter() - started
    finally:
        server.stop()
    ctx.check(dump.exists(), "traced server wrote no layer dump")
    snapshots = json.loads(dump.read_text()) if dump.exists() else {}
    empty = {"self_s": {}, "counts": {}}
    timed = layers.subtract(snapshots.get("end", empty),
                            snapshots.get("after_warmup", empty))
    out.update(layers.layer_metrics(timed))
    layer_s = sum(timed["self_s"].values())
    out.update({
        "warm.stimulus.s": timed["self_s"].get("stimulus", 0.0),
        "warm.simulate.s": timed["self_s"].get("simulate", 0.0),
        "traced.s": traced_s,
        "untraced.s": traced_s - layer_s,
        "trace_overhead_ratio": median(traced_blocks) / median(plain_blocks)
        - 1.0,
    })
    return out


def server_side(before, after, client_mean_s: float) -> Dict[str, float]:
    """Server-side means over a phase, from two ``/metrics`` scrapes."""

    def delta(name: str, label: str = "") -> float:
        return _total(after, name, label) - _total(before, name, label)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    from repro.serve.loadgen import ENDPOINTS

    server_s = ratio(
        sum(delta("serve_request_seconds_sum", f'endpoint="{family}"')
            for family in ENDPOINTS),
        sum(delta("serve_request_seconds_count", f'endpoint="{family}"')
            for family in ENDPOINTS),
    )
    return {
        "serve.server_ms_mean": 1e3 * server_s,
        "serve.transport_ms_mean": 1e3 * (client_mean_s - server_s),
        "serve.batch.size_mean": ratio(delta("serve_batch_size_sum"),
                                       delta("serve_batch_size_count")),
        "serve.batch.timer_flush_ratio": ratio(
            delta("serve_batch_flush_total", 'reason="timeout"'),
            delta("serve_batch_flush_total")),
        "serve.registry.hit_ratio": ratio(
            delta("serve_registry_lookups_total", 'result="memory"'),
            delta("serve_registry_lookups_total")),
        "serve.rejected": delta("serve_rejected_total"),
    }


def _sampled_traces(ctx: Context, server: Server, payloads,
                    samples: int = 20) -> Dict[str, float]:
    """Mean span times of ``X-Repro-Trace`` bits requests."""
    bits = [p for p in payloads if p[0].endswith("/bits")]
    request_s: List[float] = []
    flush_s: List[float] = []
    for index in range(samples):
        path, body = bits[index % len(bits)]
        status, raw = server.request(
            "POST", path, body,
            {"Content-Type": "application/json", "X-Repro-Trace": "1"})
        spans = json.loads(raw).get("trace", {}).get("spans", {}) \
            if status == 200 else {}
        ok = ctx.check("serve.request" in spans and "batch.flush" in spans,
                       f"traced request lacks spans: {status} {sorted(spans)}")
        if ok:
            request_s.append(spans["serve.request"]["total_s"])
            flush_s.append(spans["batch.flush"]["total_s"])
    return {
        "serve.trace.request_ms": 1e3 * median(request_s or [0.0]),
        "serve.trace.batch_flush_ms": 1e3 * median(flush_s or [0.0]),
    }

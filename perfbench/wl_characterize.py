"""Workload ``characterize-sweep``: characterize once, then look up many times.

A ``repro.Session`` on a fresh cache directory characterizes the five
Table-1 families at widths 8/16/24/32, basic and enhanced (the **cold**
phase: simulate, then write the cache).  A second, fresh ``Session`` on the
same directory repeats the same lookups (the **warm** phase: cache reads
only, no stimulus and no simulation).  One unit of work is one cold sweep.
One operation is one warm pass: a fresh ``Session`` loading all 40 models.
A single lookup is not the operation because lookup times form a
staircase over model sizes (0.7 to 12 ms), and a percentile of such a mix
jumps between steps from run to run.
"""

from __future__ import annotations

import json
import math
import pickle
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import layers
from common import (Context, HostSpeed, library_setup_seconds, more_units,
                    peak_rss_mb, sub_seed)
from record import percentile, samples_for

WIDTHS = (8, 16, 24, 32)

#: Warm passes after each cold sweep; two sweeps give the 100 samples p90
#: needs.
WARM_PASSES = 50


def _jobs() -> List[Tuple[str, int, bool]]:
    from repro.modules.library import PAPER_MODULE_KINDS

    return [
        (kind, width, enhanced)
        for kind in PAPER_MODULE_KINDS
        for width in WIDTHS
        for enhanced in (False, True)
    ]


def _fingerprint(result) -> str:
    """Byte-exact identity of the fitted models of one characterization."""
    from repro.core.serialize import model_to_dict

    models = [model_to_dict(result.model)]
    if result.enhanced is not None:
        models.append(model_to_dict(result.enhanced))
    return json.dumps(models, sort_keys=True)


def _finite(result) -> bool:
    values = list(result.model.coefficients)
    if result.enhanced is not None:
        values += list(result.enhanced.coefficients.values())
    return all(math.isfinite(float(v)) for v in values)


def _session(directory: Path, seed: int):
    import repro
    from repro.eval import ExperimentConfig

    return repro.Session(cache_dir=str(directory),
                         config=ExperimentConfig(seed=seed))


def _cold(ctx: Context, directory: Path, seed: int,
          speed: Optional[HostSpeed] = None) -> Tuple[float, List[str]]:
    """The cold sweep: (seconds, one fingerprint per job).

    With ``speed``, a host-speed sample follows each job and its time is
    left out of the sweep's.
    """
    session = _session(directory, seed)
    jobs = _jobs()
    results = []
    failed = 0
    spent = speed.spent if speed else 0.0
    started = time.perf_counter()
    for kind, width, enhanced in jobs:
        try:
            results.append(session.characterize(kind, width, enhanced))
        except Exception as error:  # noqa: BLE001 — counted, reported
            failed += 1
            ctx.problems.append(f"{kind}/{width}: {error!r}")
            results.append(None)
        if speed:
            speed.sample()
    elapsed = time.perf_counter() - started
    if speed:
        elapsed -= speed.spent - spent
    ctx.tally.operations(len(jobs), failed)
    ctx.check(all(r is None or _finite(r) for r in results),
              f"seed {seed}: a cold model has a non-finite coefficient")
    return elapsed, [r and _fingerprint(r) for r in results]


def _warm(ctx: Context, directory: Path, seed: int, cold: List[str],
          speed: Optional[HostSpeed] = None) -> List[float]:
    """Warm passes; returns each pass's seconds.

    With ``speed``, a host-speed sample follows each pass.

    The first pass is compared with the cold models field by field; later
    passes, which rebuild the models the same way, byte for byte with the
    first pass's pickles (a twelfth of the cost).
    """
    jobs = _jobs()
    passes: List[float] = []
    first: List[bytes] = []
    mismatched = failed = 0
    for _ in range(WARM_PASSES):
        started = time.perf_counter()
        session = _session(directory, seed)
        results = []
        for kind, width, enhanced in jobs:
            try:
                results.append(session.characterize(kind, width, enhanced))
            except Exception as error:  # noqa: BLE001 — counted, reported
                failed += 1
                ctx.problems.append(f"warm {kind}/{width}: {error!r}")
                results.append(None)
        passes.append(time.perf_counter() - started)
        if speed:
            speed.sample()
        identities = [
            r and pickle.dumps((r.model, r.enhanced)) for r in results
        ]
        if not first:
            first = identities
            mismatched += sum(
                r is None or _fingerprint(r) != expected
                for r, expected in zip(results, cold)
            )
        else:
            mismatched += sum(a != b for a, b in zip(identities, first))
    ctx.tally.operations(WARM_PASSES * len(jobs), failed)
    ctx.check(mismatched == 0,
              f"seed {seed}: {mismatched} warm models differ from cold ones")
    return passes


def run(ctx: Context) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Returns (end-to-end metrics, per-layer metrics)."""
    setup_s = library_setup_seconds()
    import repro  # noqa: F401 — imports before timing

    if ctx.trace:
        return {}, _traced(ctx)

    cold_s: List[float] = []
    passes: List[float] = []
    ctx.speed = HostSpeed()
    started = time.perf_counter()
    while more_units(started, ctx.seconds, len(cold_s), len(passes),
                     samples_for(90)):
        seed = sub_seed(ctx.seed, len(cold_s))
        directory = ctx.scratch(f"cache-{len(cold_s)}")
        seconds, fingerprints = _cold(ctx, directory, seed, ctx.speed)
        cold_s.append(ctx.speed.factor() * seconds)
        warm = _warm(ctx, directory, seed, fingerprints, ctx.speed)
        factor = ctx.speed.factor()
        passes += [factor * t for t in warm]
    return {
        "setup_s": setup_s,
        "work_s": median(cold_s),
        "op_p50_ms": 1e3 * percentile(passes, 50),
        "op_p90_ms": 1e3 * percentile(passes, 90),
        "peak_rss_mb": peak_rss_mb(),
    }, {}


def _traced(ctx: Context) -> Dict[str, float]:
    seed = sub_seed(ctx.seed, 0)
    # A first cold sweep pays the one-off costs (lazy imports, allocator
    # and page warm-up), so that neither side of the timed pair does.
    _, warm_up = _cold(ctx, ctx.scratch("warm-up"), seed)
    plain_dir = ctx.scratch("plain")
    traced_dir = ctx.scratch("traced")
    tracer = layers.LayerTracer()
    untraced_s, plain = _cold(ctx, plain_dir, seed)
    layers.install_program_layers(tracer)
    try:
        traced_cold_s, fingerprints = _cold(ctx, traced_dir, seed)
        cold_layers = tracer.snapshot()
        started = time.perf_counter()
        _warm(ctx, traced_dir, seed, fingerprints)
        traced_s = traced_cold_s + time.perf_counter() - started
    finally:
        tracer.uninstall()
    cache_bytes = sum(
        path.stat().st_size for path in traced_dir.rglob("*")
        if path.is_file()
    )
    ctx.check(fingerprints == plain == warm_up,
              f"seed {seed}: traced models differ from untraced ones")
    snapshot = tracer.snapshot()
    warm = layers.subtract(snapshot, cold_layers)["self_s"]
    out = layers.layer_metrics(snapshot)
    out.update({
        "cache.bytes": cache_bytes,
        "warm.stimulus.s": warm.get("stimulus", 0.0),
        "warm.simulate.s": warm.get("simulate", 0.0),
        "traced.s": traced_s,
        "untraced.s": traced_s - tracer.layer_seconds(),
        "trace_overhead_ratio": traced_cold_s / untraced_s - 1.0,
    })
    return out

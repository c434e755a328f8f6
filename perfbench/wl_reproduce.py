"""Workload ``reproduce-full``: the paper's whole evaluation, in-process.

``reproduce_all(scale="full", seed)`` with no disk cache, so neither
``runtime.cache`` nor ``serve`` takes part.  Stimulus generation and
reference simulation do most of the work.  One unit of work is one report;
one operation is one module characterization inside it.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import math
import time
from statistics import median
from typing import Dict, List, Tuple

import layers
from common import (Context, HostSpeed, library_setup_seconds, more_units,
                    peak_rss_mb, sub_seed)
from record import percentile, samples_for

SECTIONS = (
    "table1", "table2", "table3",
    "figure1", "figure2", "figure3", "figure4",
    "figure5", "figure6", "figure7", "figure8", "figure9",
)


def _one_report(ctx: Context, seed: int,
                scale: str = "full") -> Tuple[float, str, float]:
    """One reproduction: (seconds, report digest, Table-1 mean ε_a)."""
    import repro.eval.reproduce as reproduce

    tables: List = []
    table1 = reproduce.table1

    def capture(*args, **kwargs):
        tables.append(table1(*args, **kwargs))
        return tables[-1]

    reproduce.table1 = capture
    gc.collect()
    try:
        started = time.perf_counter()
        sections = reproduce.reproduce_all(scale=scale, seed=seed)
        elapsed = time.perf_counter() - started
    finally:
        reproduce.table1 = table1
    missing = [name for name in SECTIONS if not sections.get(name)]
    ctx.tally.operations(len(SECTIONS), len(missing))
    ctx.check(not missing, f"seed {seed}: sections missing: {missing}")
    errors = [
        value for row in tables[0].rows
        for value in row.cycle_errors.values()
    ] if tables else []
    mean_error = sum(errors) / len(errors) if errors else math.nan
    ctx.check(
        len(errors) == 75 and all(math.isfinite(e) for e in errors)
        and 0.0 < mean_error < 100.0,
        f"seed {seed}: Table-1 cycle errors implausible "
        f"({len(errors)} cells, mean {mean_error})",
    )
    digest = hashlib.sha256(
        reproduce.render_report(sections).encode()
    ).hexdigest()
    return elapsed, digest, mean_error


def _then_sample(fn, speed: HostSpeed):
    """``fn``, then one host-speed sample outside its span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            speed.sample()

    return wrapper


def run(ctx: Context) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Returns (end-to-end metrics, per-layer metrics)."""
    setup_s = library_setup_seconds()
    import repro.eval.reproduce  # noqa: F401 — imports before timing

    if ctx.trace:
        return {}, _traced(ctx)

    # An untimed small-scale report pays the one-off costs (lazy imports,
    # first calls, allocator warm-up): on a 2-vCPU virtual machine the first
    # full report of a process ran about 5% slower, on average, than the
    # next.  Its outputs are checked.
    _one_report(ctx, sub_seed(ctx.seed, 0), scale="small")
    probe = layers.LayerTracer(keep_durations=("characterize",))
    probe.patch_function("repro.core.characterize", "characterize_module",
                         "characterize")
    ctx.speed = speed = HostSpeed()
    undo = layers.replace_everywhere(
        "repro.core.characterize", "characterize_module",
        lambda fn: _then_sample(fn, speed))
    report_s: List[float] = []
    ops: List[float] = []
    started = time.perf_counter()
    try:
        while more_units(started, ctx.seconds, len(report_s), len(ops),
                         samples_for(90)):
            spent = speed.spent
            seconds, _, _ = _one_report(
                ctx, sub_seed(ctx.seed, 1 + len(report_s)))
            factor = speed.factor()
            report_s.append(factor * (seconds - (speed.spent - spent)))
            ops += [factor * duration for duration
                    in probe.durations["characterize"][len(ops):]]
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        probe.uninstall()
    return {
        "setup_s": setup_s,
        "work_s": median(report_s),
        "op_p50_ms": 1e3 * percentile(ops, 50),
        "op_p90_ms": 1e3 * percentile(ops, 90),
        "peak_rss_mb": peak_rss_mb(),
    }, {}


def _traced(ctx: Context) -> Dict[str, float]:
    seed = sub_seed(ctx.seed, 0)
    # A first report pays the one-off costs (lazy imports, allocator and
    # page warm-up), so that neither side of the timed pair does.
    _, warm_digest, _ = _one_report(ctx, seed)
    untraced_s, plain_digest, _ = _one_report(ctx, seed)
    tracer = layers.LayerTracer()
    layers.install_program_layers(tracer)
    try:
        traced_s, traced_digest, mean_error = _one_report(ctx, seed)
    finally:
        tracer.uninstall()
    ctx.check(traced_digest == plain_digest == warm_digest,
              f"seed {seed}: traced report differs from the untraced one")
    out = layers.layer_metrics(tracer.snapshot())
    out.update({
        "traced.s": traced_s,
        "untraced.s": traced_s - tracer.layer_seconds(),
        "trace_overhead_ratio": traced_s / untraced_s - 1.0,
        "table1_cycle_error_pct": mean_error,
    })
    return out

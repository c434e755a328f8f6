"""The repository's end-to-end benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload reproduce-full --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace
1`` runs the workload once untraced and once with the layer tracer
installed, and reports per-layer self times, counts and ratios.  The
end-to-end times ``work_s`` and ``op_*`` are scaled to the baseline
machine's speed by a reference loop timed between units of work
(``common.HostSpeed``); the record lists the factors.  Metric names and
units are those declared in ``BENCHMARK.json``.  Every run checks
the program's outputs; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is the full record, stamped with the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median
from typing import Dict

import common
import record

WORKLOADS = ("reproduce-full", "characterize-sweep", "serve-mixed")


def _runner(workload: str):
    if workload == "reproduce-full":
        import wl_reproduce as module
    elif workload == "characterize-sweep":
        import wl_characterize as module
    else:
        import wl_serve as module
    return module.run


def _declared(trace: bool) -> Dict[str, str]:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in group}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {common.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    common.activate()
    units = _declared(bool(args.trace))
    ctx = common.Context(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    ticks = record.cpu_ticks()
    try:
        end_to_end, per_layer = _runner(args.workload)(ctx)
    finally:
        ctx.cleanup()
    steal = record.steal_share(ticks, record.cpu_ticks())

    from repro.circuit.native import native_kernel, native_status

    native_kernel()
    if args.trace:
        metrics = {name: per_layer.get(name, 0.0) for name in units}
        metrics["fail_ratio"] = ctx.tally.fail_ratio
        extra = set(per_layer) - set(units)
    else:
        metrics = dict(end_to_end)
        metrics["ok_ratio"] = 1.0 - ctx.tally.fail_ratio
        extra = set(metrics) - set(units)
    missing = set(units) - set(metrics)
    if extra or missing:
        raise SystemExit(f"undeclared {sorted(extra)}, missing {sorted(missing)}")

    for name, value in metrics.items():
        print(f"{args.workload:20s} {name:34s} {value:16.6f} {units[name]}")
    if steal is not None:
        print(f"{args.workload:20s} {'(host steal share)':34s} {steal:16.6f}")
    factors = ctx.speed.factors if ctx.speed else []
    if factors:
        print(f"{args.workload:20s} {'(median host speed factor)':34s} "
              f"{median(factors):16.6f}")
    for problem in ctx.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = record.result_line(ctx.tally, metrics, units)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": record.environment(common.ROOT, native_status()),
        "steal_share": steal,
        "host_speed_factors": factors,
        "problems": ctx.problems,
        **result,
    }
    print(json.dumps(full))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

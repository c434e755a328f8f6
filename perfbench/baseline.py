"""Measure a baseline: ten seeds per workload, plus one traced run.

Usage::

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload, runs ``run.py`` once per seed 1..10 with tracing off
and once with tracing on, saving each run's standard output under
``--scratch``.  Then writes each end-to-end metric's median, quartiles and
spread (interquartile distance ÷ median, as the acceptance check computes
it), how long a whole run took (``run_wall_s``), the traced run's
per-layer table and the environment stamp.  Prints the spreads as it goes
and flags those above a third of their bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from record import read_record

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Seeds measured per workload.
SEEDS = range(1, 11)


def _run(workload: str, seed: int, trace: int, out: Path) -> dict:
    """One run's record, with its whole wall time as ``wall_s``."""
    started = time.perf_counter()
    with open(out, "w") as handle:
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
             "--trace", str(trace)],
            cwd=ROOT, check=True, stdout=handle, timeout=600,
        )
    rec = read_record(str(out))
    rec["wall_s"] = time.perf_counter() - started
    return rec


def summarize(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", default=str(
        ROOT / ".bench_build" / "perfbench" / "records"))
    args = parser.parse_args(argv)
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    baseline = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        records = []
        for seed in SEEDS:
            rec = _run(workload, seed, 0, scratch / f"{workload}-{seed}.txt")
            if not rec["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {rec['problems']}")
            records.append(rec)
        traced = _run(workload, SEEDS[0], 1,
                      scratch / f"{workload}-traced.txt")
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in records])
            for name in records[0]["metrics"]
        }
        for name, row in summary.items():
            flag = "  > bound/3" if row["spread"] > bounds[name] / 3 else ""
            print(f"{workload:20s} {name:14s} median {row['median']:10.4f} "
                  f"spread {row['spread']:.4f}{flag}", flush=True)
        baseline["environment"] = records[0]["environment"]
        baseline["workloads"][workload] = {
            "seeds": [r["seed"] for r in records],
            "run_wall_s": summarize([r["wall_s"] for r in records]),
            "end_to_end": summary,
            "traced": {
                "seed": traced["seed"], "correct": traced["correct"],
                "metrics": {name: m["value"]
                            for name, m in traced["metrics"].items()},
            },
        }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

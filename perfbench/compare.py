"""Compare benchmark records of a base and a head commit.

Usage::

    python3 perfbench/compare.py --base a1.txt a2.txt ... \\
        --head b1.txt b2.txt ...

Each file is the saved standard output of one ``run.py`` run, whose record
line is picked out.  For every metric the medians of both sides are
compared against the bound in ``BENCHMARK.json``.  Records whose
environments differ in native backend, numpy version or CPU count are
incomparable: the comparison says so and exits 3 without a verdict, since
a failed native build alone halves simulation speed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List

from record import incomparable, read_record

ROOT = Path(__file__).resolve().parent.parent


def _load(paths: List[str]) -> List[dict]:
    records = []
    for path in paths:
        found = read_record(path)
        if found is None:
            raise SystemExit(f"{path}: no benchmark record found")
        records.append(found)
    return records


def compare(base: List[dict], head: List[dict],
            spec: dict) -> Dict[str, object]:
    """Verdicts per metric, or the reasons the sides are incomparable."""
    reasons = sorted({
        reason
        for a in base + head
        for reason in incomparable(base[0]["environment"], a["environment"])
    })
    workloads = {r["workload"] for r in base + head}
    if len(workloads) > 1:
        reasons.append(f"different workloads: {sorted(workloads)}")
    if reasons:
        return {"comparable": False, "reasons": reasons}
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for name in base[0]["metrics"]:
        a = median(r["metrics"][name]["value"] for r in base)
        b = median(r["metrics"][name]["value"] for r in head)
        meta = declared.get(name, {})
        change = (b - a) / abs(a) if a else 0.0
        worse = change if meta.get("better") == "lower" else -change
        bound = meta.get("bound")
        rows.append({
            "metric": name, "base": a, "head": b, "change": change,
            "bound": bound,
            "regressed": bound is not None and worse > bound,
        })
    return {"comparable": True, "metrics": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    verdict = compare(_load(args.base), _load(args.head), spec)
    if not verdict["comparable"]:
        for reason in verdict["reasons"]:
            print(f"incomparable: {reason}")
        return 3
    for row in verdict["metrics"]:
        flag = "REGRESSED" if row["regressed"] else ""
        print(f"{row['metric']:34s} {row['base']:14.6g} {row['head']:14.6g} "
              f"{100 * row['change']:+8.2f}% {flag}")
    return 1 if any(row["regressed"] for row in verdict["metrics"]) else 0


if __name__ == "__main__":
    sys.exit(main())

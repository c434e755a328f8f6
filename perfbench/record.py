"""Sample statistics, failure tallies and environment stamps of a run."""

from __future__ import annotations

import json
import math
import os
import platform
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Metric names a result line may carry.
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

#: Samples a reported percentile needs beyond it.
TAIL_SAMPLES = 10

#: Stamp fields whose difference makes two runs incomparable: a failed
#: native build alone halves simulation speed.
COMPARABLE_FIELDS = ("native_backend", "numpy", "cpu_count")


def supported_percentile(n_samples: int, tail: int = TAIL_SAMPLES) -> float:
    """The highest percentile with at least ``tail`` samples beyond it.

    Returns 0.0 when fewer than ``tail + 1`` samples exist (no percentile
    above the minimum is supported).
    """
    if n_samples <= tail:
        return 0.0
    return 100.0 * (n_samples - tail) / n_samples


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, as :func:`numpy.percentile` gives it.

    A percentile above the median needs :data:`TAIL_SAMPLES` samples
    beyond it; with fewer, this raises instead of reporting noise.
    """
    if not samples:
        raise ValueError("no samples")
    if q > 50 and q > supported_percentile(len(samples)):
        raise ValueError(
            f"p{q:g} needs {samples_for(q)} samples, got {len(samples)}")
    return float(np.percentile(samples, q))


def samples_for(q: float, tail: int = TAIL_SAMPLES) -> int:
    """Smallest sample count whose :func:`supported_percentile` is >= q."""
    return math.ceil(tail * 100.0 / (100.0 - q))


@dataclass
class Tally:
    """Attempted and failed operations and checks of one run.

    Every operation (a report section, a characterization, a request) and
    every correctness check is one attempt; an operation that errors or a
    check that does not hold is one failure.
    """

    attempted: int = 0
    failed: int = 0

    def operations(self, attempted: int, failed: int = 0) -> None:
        if failed < 0 or failed > attempted:
            raise ValueError("failed must lie in 0..attempted")
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, message: str, log: List[str]) -> bool:
        """Count one check; a failing one is logged and counted failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            log.append(message)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def cpu_ticks() -> Optional[List[int]]:
    """Aggregate CPU ticks from ``/proc/stat`` (None where there is none)."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]],
                after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor took away between two readings.

    A high share means the host was busy and times read long; compare
    such runs with care.
    """
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def backend_class(status: str) -> str:
    """``native_status()`` without its build path: comparable across trees."""
    return status.split(" (", 1)[0]


def environment(root: Path, native_status: str) -> Dict[str, Any]:
    """The stamp every record carries (paths relative to ``root``)."""
    native_status = native_status.replace(f"{root}{os.sep}", "")
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "native_status": native_status,
        "native_backend": backend_class(native_status),
    }


def incomparable(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Stamp fields that differ between two records' environments."""
    return [
        f"{field}: {a.get(field)!r} != {b.get(field)!r}"
        for field in COMPARABLE_FIELDS
        if a.get(field) != b.get(field)
    ]


def result_line(tally: Tally, metrics: Dict[str, float],
                units: Dict[str, str]) -> Dict[str, Any]:
    """The final JSON result line of a run."""
    bad = [name for name in metrics if not NAME_PATTERN.fullmatch(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def read_record(path: str) -> Optional[Dict[str, Any]]:
    """The full record in a run's saved standard output."""
    records = [
        json.loads(line) for line in Path(path).read_text().splitlines()
        if line.startswith("{")
    ]
    records = [r for r in records if "environment" in r]
    return records[-1] if records else None

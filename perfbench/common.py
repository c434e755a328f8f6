"""What every workload shares: paths, process environment, set-up timing.

All program state the benchmark creates — the native kernel build, temp
directories, model caches — lives under ``.bench_build/perfbench`` in the
checkout, so a run reads and writes nothing outside it.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from record import Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: Units of work every run measures at least; the median needs two.
MIN_UNITS = 2

#: Set-ups (fresh interpreters, server starts) timed per run for ``setup_s``;
#: the median is reported.
SETUP_REPEATS = 7

#: What a user of the library pays before the first characterization:
#: imports and the native simulation kernel resolved (built once, cached).
SETUP_SNIPPET = (
    "import repro, repro.eval, repro.runtime, repro.serve\n"
    "from repro.circuit.native import native_kernel\n"
    "native_kernel()\n"
)


def program_env() -> Dict[str, str]:
    """Environment for the program, in-process and in child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    env["REPRO_CACHE_DIR"] = str(BUILD / "model-cache")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def activate() -> None:
    """Point this process at the checkout's program and build directory."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(program_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_setup_snippet() -> None:
    """Run :data:`SETUP_SNIPPET` once in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET], env=program_env(),
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{out.stderr}")


def library_setup_seconds() -> float:
    """Median wall time of fresh interpreters doing the library set-up,
    scaled like every end-to-end time (:class:`HostSpeed`).

    The first call in a checkout builds the native kernel; that one-off
    build is done before timing, so ``setup_s`` is what every later user
    pays.
    """
    run_setup_snippet()
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        run_setup_snippet()
        times.append(time.perf_counter() - started)
        speed.sample()
    return speed.factor() * median(times)


#: Rounds of the reference loop in one host-speed sample (about 16 ms).
REFERENCE_ROUNDS = 15

#: Seconds one reference sample takes at the usual speed of the machine the
#: baseline was measured on (a 2-vCPU virtual machine).  End-to-end times
#: are reported at that speed.
REFERENCE_NOMINAL_S = 0.016


def reference_seconds() -> float:
    """Wall time of one sample of a fixed reference loop.

    Python bytecode and numpy integer arithmetic on 20 000-element arrays,
    the mix the program's stimulus and simulation layers run.  The arrays
    are updated in place: a fresh array per operation would time the
    allocator, which runs twice as fast in a process that has already
    made many.  The loop is the benchmark's own, so no change to the
    program can move it.
    """
    import numpy as np

    words = np.arange(20_000, dtype=np.int64)
    low = np.empty_like(words)
    total = 0
    started = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        for i in range(3000):
            total += i ^ (i >> 3)
        for _ in range(20):
            np.multiply(words, 1103515245, out=words)
            np.add(words, 12345, out=words)
            np.bitwise_and(words, 0xFFFF, out=words)
            np.bitwise_and(words, 1, out=low)
            total += int(np.count_nonzero(low))
    return time.perf_counter() - started


class HostSpeed:
    """Factors that put the times of a run at the baseline machine's speed.

    A shared virtual machine's speed moves by 10-30% in spells of seconds
    to minutes, so the same work timed a minute apart differs by more than
    a benchmark bound, and no run is long enough to average the spells
    away.  So a workload times a short reference sample after every
    operation, and multiplies the times of a unit of work by
    :data:`REFERENCE_NOMINAL_S` over the mean sample taken during it.  On a
    2-vCPU virtual machine, characterizations (0.07 s each) and the
    reference sample after each correlated at 0.81; over 40-operation
    blocks the coefficient of variation fell from 0.135 raw to 0.048
    scaled.  Time spent in samples (``spent``) is not part of any unit.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.factors: List[float] = []
        self._samples: List[float] = []

    def sample(self) -> None:
        """Times one reference sample for the current unit of work."""
        started = time.perf_counter()
        self._samples.append(reference_seconds())
        self.spent += time.perf_counter() - started

    def factor(self) -> float:
        """The factor for the work since the last call."""
        if not self._samples:
            self.sample()
        self.factors.append(REFERENCE_NOMINAL_S * len(self._samples)
                            / sum(self._samples))
        self._samples = []
        return self.factors[-1]


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def more_units(started: float, seconds: float, units: int,
               samples: int, needed: int) -> bool:
    """Whether to start another unit of work.

    Stops once another unit of the average length so far would end past
    ``seconds``, but not before :data:`MIN_UNITS` units and ``needed``
    operation samples.
    """
    if units < MIN_UNITS or samples < needed:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / units <= seconds


def sub_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th unit of work of a run."""
    return seed * 1000 + index


@dataclass
class Context:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tally: Tally = field(default_factory=Tally)
    problems: List[str] = field(default_factory=list)
    #: Set by workloads that scale their end-to-end times.
    speed: Optional[HostSpeed] = None
    _scratch: List[Path] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        return self.tally.check(ok, message, self.problems)

    def scratch(self, name: str) -> Path:
        """A fresh, empty directory for this run."""
        path = BUILD / "tmp" / f"{self.workload}-{os.getpid()}-{name}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        self._scratch.append(path)
        return path

    def cleanup(self) -> None:
        """Remove every directory :meth:`scratch` made."""
        while self._scratch:
            shutil.rmtree(self._scratch.pop(), ignore_errors=True)

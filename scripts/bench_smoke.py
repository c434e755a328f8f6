"""Smoke-test the parallel characterization path and the persistent cache.

Drives the real CLI twice with ``--jobs 2`` against a throwaway cache
directory and asserts that the second invocation is served entirely from
disk (cache hits == jobs, zero misses) and that the models it writes are
byte-identical to the cold run's.  This is the ``make bench-smoke`` target
(a CI step): it exercises the runtime fan-out/cache layer end to end in
about a second, without the cost of the full benchmark suite.
"""

from __future__ import annotations

import io
import re
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402
from repro.runtime import ModelCache  # noqa: E402

KINDS = "ripple_adder,csa_multiplier"
WIDTH = "4"
N_JOBS = 2


def run_cli(cache_dir: str, models_dir: Path) -> tuple[str, float]:
    argv = [
        "characterize",
        "--kind", KINDS,
        "--width", WIDTH,
        "--patterns", "300",
        "--enhanced",
        "--jobs", str(N_JOBS),
        "--cache-dir", cache_dir,
        "--output", str(models_dir),
    ]
    buffer = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(buffer):
        code = main(argv)
    elapsed = time.perf_counter() - started
    output = buffer.getvalue()
    if code != 0:
        raise SystemExit(f"CLI exited with {code}:\n{output}")
    return output, elapsed


def counters(output: str) -> tuple[int, int]:
    match = re.search(r"cache hits: (\d+) \| misses: (\d+)", output)
    if match is None:
        raise SystemExit(f"no service summary in CLI output:\n{output}")
    return int(match.group(1)), int(match.group(2))


def model_files(models_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(models_dir.glob("*.json"))}


def main_smoke() -> int:
    n_jobs_expected = len(KINDS.split(","))
    with tempfile.TemporaryDirectory(prefix="repro-bench-smoke-") as tmp, \
            tempfile.TemporaryDirectory(prefix="repro-models-") as models:
        cold_dir, warm_dir = Path(models, "cold"), Path(models, "warm")
        cold_out, cold_s = run_cli(tmp, cold_dir)
        hits, misses = counters(cold_out)
        assert hits == 0 and misses == n_jobs_expected, (
            f"cold run expected 0 hits / {n_jobs_expected} misses, "
            f"got {hits} / {misses}"
        )
        warm_out, warm_s = run_cli(tmp, warm_dir)
        hits, misses = counters(warm_out)
        assert hits == n_jobs_expected and misses == 0, (
            f"warm run expected {n_jobs_expected} hits / 0 misses, "
            f"got {hits} / {misses}"
        )
        cold_models, warm_models = model_files(cold_dir), model_files(warm_dir)
        assert len(cold_models) == n_jobs_expected, (
            f"expected {n_jobs_expected} model files, found "
            f"{sorted(cold_models)}"
        )
        differ = sorted(name for name, data in cold_models.items()
                        if warm_models.get(name) != data)
        assert not differ, (
            f"warm (cache-served) models differ from the cold run's: {differ}"
        )
        entries = ModelCache(tmp).stats()["entries"]
        assert entries == n_jobs_expected, (
            f"expected {n_jobs_expected} cache entries, found {entries}"
        )
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        print(f"bench-smoke OK: {n_jobs_expected} jobs, --jobs {N_JOBS}, "
              "warm models byte-identical to cold")
        print(f"  cold (simulated) : {cold_s:.2f}s")
        print(f"  warm (cache hit) : {warm_s:.2f}s  ({speedup:.0f}x faster)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_smoke())

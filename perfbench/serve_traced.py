"""Run ``repro-power`` with the benchmark's layer tracer installed.

Usage: ``python3 perfbench/serve_traced.py DUMP.json serve ...``.  The
arguments after ``DUMP.json`` go to the CLI unchanged.  When the command
ends (``serve`` drains on SIGTERM), the layer snapshots taken right after
the warmup and at the end are written to ``DUMP.json``, so their
difference is the request path's share.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import common
import layers


def main() -> int:
    dump, argv = Path(sys.argv[1]), sys.argv[2:]
    common.activate()
    import repro.cli
    import repro.serve

    tracer = layers.LayerTracer()
    layers.install_program_layers(tracer)
    snapshots = {}
    warm_registry = repro.serve.warm_registry

    def warm_then_snapshot(*args, **kwargs):
        try:
            return warm_registry(*args, **kwargs)
        finally:
            snapshots["after_warmup"] = tracer.snapshot()

    repro.serve.warm_registry = warm_then_snapshot
    try:
        return repro.cli.main(argv)
    finally:
        snapshots["end"] = tracer.snapshot()
        dump.write_text(json.dumps(snapshots))


if __name__ == "__main__":
    raise SystemExit(main())

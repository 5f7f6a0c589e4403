"""Run ``repro-gbc serve`` with the benchmark's layer tracing installed.

Usage: ``python3 perfbench/daemon.py SUMMARY.json serve [serve flags...]``

The daemon runs exactly as ``python -m repro serve`` would; the layers'
entry points are wrapped (layertrace.py) for the life of the process, and
when the daemon has drained after SIGTERM the span summary is written to
``SUMMARY.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layertrace import Tracer, install  # noqa: E402


def main(argv) -> int:
    summary_path = Path(argv[0])
    import repro.cli as cli

    tracer = Tracer()
    restore = install(tracer)
    load = cli.load
    cli.load = tracer.wrap(load, "graph.build")
    try:
        return cli.main(argv[1:])
    finally:
        cli.load = load
        restore()
        summary_path.write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

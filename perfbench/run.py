"""End-to-end, layer-resolved benchmark of the AdaAlg reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload adaalg-ba80k-default --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's own
functions; ``--trace 1`` wraps each layer's entry points (trace.py) and
reports the per-layer metrics instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller run record (machine, quartiles over the repeats
inside the run, the checker's findings) is written to
``.perfbench_runs/`` in the checkout; ``summarize.py`` aggregates those
records over several runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = (
    "adaalg-ba80k-default",
    "adaalg-ba80k-cohort",
    "compare-grqc",
    "serve-mixed",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_concurrency(
    workload: str, sampling_workers: int, client_threads: int
) -> None:
    """Refuse a configuration that oversubscribes the machine."""
    cpus = os.cpu_count() or 1
    if sampling_workers > cpus or client_threads > cpus:
        raise SystemExit(
            f"error: {workload} would start {sampling_workers} sampling "
            f"worker(s) and {client_threads} client thread(s) on "
            f"{cpus} CPU(s); refusing to oversubscribe"
        )


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    if name == "serve-mixed":
        import servemix

        check_concurrency(name, servemix.SAMPLING_WORKERS, servemix.CLIENTS)
        return servemix.run(seed, seconds, traced)
    import opload

    check_concurrency(name, opload.SAMPLING_WORKERS[name], 1)
    return opload.run(opload.WORKLOADS[name], seed, seconds, traced)


def machine() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import END_TO_END, PER_LAYER, UNITS, quartiles

    traced = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, traced)
    names = PER_LAYER if traced else END_TO_END
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    correct = not outcome.problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": outcome.metrics,
        "quartiles": {k: quartiles(v) for k, v in outcome.repeats.items() if v},
        "repeats": outcome.repeats,
        "details": outcome.details,
    }
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if outcome.spans:
        # [layer, start, end, depth] per span, perf_counter seconds
        spans_path = path.with_name(path.stem + "-spans.json")
        spans_path.write_text(json.dumps(outcome.spans))
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"run record: {path}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": UNITS[name]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

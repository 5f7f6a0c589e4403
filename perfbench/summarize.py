"""Aggregate run records written by run.py over several runs.

    python3 perfbench/summarize.py [RECORD.json ...]

With no arguments every record under ``.perfbench_runs/`` is read.  For
each workload and trace mode it prints, per metric, the number of runs,
the median and quartiles over the runs, and the spread (interquartile
range over median) next to the metric's bound from BENCHMARK.json, plus
the operations attempted and failed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from common import quartiles

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    paths = [Path(p) for p in argv] or sorted(
        (ROOT / ".perfbench_runs").glob("*-trace[01].json")
    )
    bounds = {
        m["name"]: m.get("bound")
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    groups = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    for (workload, trace), records in sorted(groups.items()):
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        correct = all(r["correct"] for r in records)
        seeds = sorted(r["seed"] for r in records)
        machine = records[0]["machine"]
        print(f"{workload} trace={trace} runs={len(records)} seeds={seeds} "
              f"correct={correct} attempted={attempted} failed={failed} "
              f"cpu_count={machine['cpu_count']} python={machine['python']} "
              f"numpy={machine['numpy']}")
        for name in records[0]["metrics"]:
            q = quartiles([r["metrics"][name] for r in records])
            q1, median, q3 = q["q1"], q["median"], q["q3"]
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name) if not trace else None
            limit = f" bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:28s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Shared helpers: seeds, order statistics, memory readings, results."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field

import numpy as np

#: Units of every metric the benchmark prints, end-to-end and per-layer.
UNITS = {
    "setup_s": "s",
    "query_s": "s",
    "query_p95_s": "s",
    "queries_per_s": "1/s",
    "samples_per_s": "1/s",
    "samples": "count",
    "peak_rss_mb": "MB",
    "graph.build_s": "s",
    "paths.kernel_s": "s",
    "paths.walk_s": "s",
    "paths.arcs_per_sample": "count",
    "paths.ns_per_arc": "ns",
    "engine.draw_s": "s",
    "engine.self_s": "s",
    "engine.draw_rss_mb": "MB",
    "session.ingest_s": "s",
    "coverage.greedy_s": "s",
    "coverage.validate_s": "s",
    "coverage.rebuilt_elements": "count",
    "coverage.evaluations": "count",
    "bounds.s": "s",
    "algorithms.iterations": "count",
    "algorithms.other_s": "s",
    "serve.queue_wait_s": "s",
    "serve.compute_s": "s",
    "serve.mutate_s": "s",
    "serve.cache_hits": "count",
    "serve.coalesced": "count",
    "serve.samples_reused": "count",
    "store.invalidated": "count",
    "store.surviving": "count",
    "trace.query_s": "s",
    "trace.overhead_s": "s",
}

END_TO_END = (
    "setup_s",
    "query_s",
    "query_p95_s",
    "queries_per_s",
    "samples_per_s",
    "samples",
    "peak_rss_mb",
)

PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


def seed_stream(seed: int, salt: int) -> np.random.Generator:
    """The generator every input of one workload run is drawn from."""
    return np.random.default_rng([int(seed), int(salt)])


def quartiles(values) -> dict:
    values = [float(v) for v in values]
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def p95(values) -> float:
    """Nearest-rank 95th percentile (the slowest value below 20 samples)."""
    ordered = sorted(values)
    return float(ordered[max(math.ceil(0.95 * len(ordered)) - 1, 0)])


def maxrss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a running child process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Raw per-repeat values behind the metrics (for the run record).
    repeats: dict[str, list[float]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    #: Traced runs: every span ``[layer, start, end, depth]`` recorded.
    spans: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

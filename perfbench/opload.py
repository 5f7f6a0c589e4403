"""The in-process workloads: repeated top-K queries on one graph.

One *operation* is one query from graph to group: an AdaAlg run on the
BA graph, or, on ``compare-grqc``, AdaAlg, CentRa and HEDGE in turn as
``repro-gbc compare`` runs them.  Operations repeat with fresh query
seeds until the run's time is up; each is timed from the call to the
returned group.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from collections.abc import Callable

from checker import (
    Adjacency,
    Estimate,
    GroupEstimator,
    agrees,
    edges_of,
    good_enough,
    reference_group,
    sample_estimate_stderr,
)
from common import Outcome, maxrss_mb, p95, seed_stream
from layertrace import SELF_TIME_METRICS, Tracer, install, wrapper_cost_s

K = 20
EPS = 0.3
GAMMA = 0.01


@dataclass(frozen=True)
class OpWorkload:
    """One in-process workload.

    ``build(graph_seed)`` makes the graph with the program's own
    generator or dataset loader; ``algorithms`` are the algorithm
    classes one operation runs in turn; ``engine`` is the sampling
    engine they draw through (in-process, no worker processes).
    """

    name: str
    salt: int
    #: ``None``: the graph seed is drawn from ``--seed``.
    graph_seed: int | None
    build: Callable
    setup_repeats: int
    algorithms: tuple[str, ...]
    engine: str
    checker_sources: int
    #: Operations a run makes even when its time is up sooner.
    min_ops: int


#: Generator seed of the BA graph, fixed for every run (``--seed`` draws
#: the query seeds).  AdaAlg stops at the first iteration whose guess
#: ``n(n-1)/b^q`` twice falls below its unbiased estimate, so the samples
#: a query draws jump by a factor ``b`` when the best group's B(C) lies
#: within the estimate's noise of a guess.  On this graph every query
#: seed tried stopped at the same iteration (3,888 samples); on the
#: graph of generator seed 0, half the queries drew 3,888 samples and
#: half 4,662, and other seeds give 3,244.  A graph drawn per run would
#: make samples and query time measure which graph was drawn.
BA_GRAPH_SEED = 1


def _ba80k(graph_seed: int):
    from repro.graph import barabasi_albert

    return barabasi_albert(80_000, 5, seed=graph_seed)


def _grqc(graph_seed: int):
    from repro.datasets import load

    return load("GrQc", seed=graph_seed)


WORKLOADS = {
    w.name: w
    for w in (
        OpWorkload(
            name="adaalg-ba80k-default", salt=1, graph_seed=BA_GRAPH_SEED,
            build=_ba80k, setup_repeats=2, algorithms=("adaalg",),
            engine="serial", checker_sources=32, min_ops=4,
        ),
        OpWorkload(
            name="adaalg-ba80k-cohort", salt=2, graph_seed=BA_GRAPH_SEED,
            build=_ba80k, setup_repeats=2, algorithms=("adaalg",),
            engine="batch", checker_sources=32, min_ops=3,
        ),
        OpWorkload(
            name="compare-grqc", salt=3, graph_seed=None, build=_grqc,
            setup_repeats=5, algorithms=("adaalg", "centra", "hedge"),
            engine="serial", checker_sources=256, min_ops=2,
        ),
    )
}

#: Sampling worker processes each workload starts (all engines here
#: sample in-process).
SAMPLING_WORKERS = {name: 0 for name in WORKLOADS}


def _algorithm(name: str, seed: int, engine: str):
    from repro.algorithms import AdaAlg, CentRa, Hedge

    cls = {"adaalg": AdaAlg, "centra": CentRa, "hedge": Hedge}[name]
    return cls(eps=EPS, gamma=GAMMA, seed=seed, engine=engine)


def _same_graph(a, b) -> bool:
    return (
        a.n == b.n
        and a.indices.size == b.indices.size
        and bool((a.indptr == b.indptr).all())
        and bool((a.indices == b.indices).all())
    )


def run(workload: OpWorkload, seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    stream = seed_stream(seed, workload.salt)
    graph_seed = int(stream.integers(2**31))
    if workload.graph_seed is not None:
        graph_seed = workload.graph_seed
    query_seeds = [int(s) for s in stream.integers(2**31, size=1024)]
    checker_rng = seed_stream(seed, 100 + workload.salt)

    tracer = Tracer() if traced else None
    restore = install(tracer) if traced else None
    try:
        graph, setup_times = _setup(workload, graph_seed, tracer, out)
        results, op_seeds, op_times, loop_wall = _loop(
            workload, graph, query_seeds, seconds, tracer, out
        )
    finally:
        if restore is not None:
            restore()
    peak = maxrss_mb()
    untraced_last = None
    if traced:
        # the last operation again, untraced: the difference is what
        # tracing cost (both runs see warm caches)
        start = time.perf_counter()
        _operation(workload, graph, op_seeds[-1])
        untraced_last = time.perf_counter() - start

    _check(workload, graph, results, checker_rng, out)

    samples = [sum(r.num_samples for r in op) for op in results]
    out.repeats = {"setup_s": setup_times, "query_s": op_times, "samples": samples}
    out.metrics = {
        "setup_s": statistics.median(setup_times),
        "query_s": statistics.median(op_times),
        "query_p95_s": p95(op_times),
        "queries_per_s": len(op_times) / loop_wall,
        "samples_per_s": sum(samples) / sum(op_times),
        "samples": statistics.mean(samples),
        "peak_rss_mb": peak,
    }
    if traced:
        out.metrics.update(
            _layer_metrics(tracer, results, op_times, untraced_last)
        )
        out.spans = [list(span) for span in tracer.spans]
        gap = self_time_identity(out.metrics)
        out.check(
            abs(gap) <= 1e-9 + 1e-6 * out.metrics["trace.query_s"],
            f"layer self times miss the traced query time by {gap} s",
        )
    out.details = {
        "graph_seed": graph_seed,
        "n": int(graph.n),
        "m": int(graph.num_edges),
        "engine": workload.engine,
        "query_seeds": op_seeds,
    }
    if traced:
        # what the wrappers alone should cost, to read the measured
        # overhead against: that one carries the operation's own noise
        out.details["wrapped_calls"] = len(tracer.spans)
        out.details["wrapper_cost_s"] = wrapper_cost_s()
    return out


def _setup(workload, graph_seed, tracer, out):
    times = []
    graph = None
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("graph.build"):
                built = workload.build(graph_seed)
        else:
            built = workload.build(graph_seed)
        times.append(time.perf_counter() - start)
        if graph is None:
            graph = built
        else:
            out.check(
                _same_graph(graph, built), "graph generation is not deterministic"
            )
    return graph, times


def _operation(workload, graph, query_seed):
    return [
        _algorithm(name, query_seed, workload.engine).run(graph, K)
        for name in workload.algorithms
    ]


def _loop(workload, graph, query_seeds, seconds, tracer, out):
    results, seeds, times = [], [], []
    began = time.perf_counter()
    while True:
        seed = query_seeds[out.attempted]
        out.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("algorithms"):
                    answer = _operation(workload, graph, seed)
            else:
                answer = _operation(workload, graph, seed)
        except Exception as exc:  # a failed query is counted, not fatal
            out.failed += 1
            out.problems.append(f"query seed {seed} raised {exc!r}")
            answer = None
        elapsed = time.perf_counter() - start
        if answer is not None:
            results.append(answer)
            seeds.append(seed)
            times.append(elapsed)
        if out.attempted >= len(query_seeds) or (
            time.perf_counter() - began >= seconds
            and out.attempted >= workload.min_ops
        ):
            break
    if not results:
        raise RuntimeError("no operation completed")
    return results, seeds, times, time.perf_counter() - began


def _check(workload, graph, results, rng, out) -> None:
    """Every answer against the independent checker (checker.py)."""
    adj = Adjacency.from_edges(graph.n, edges_of(graph.indptr, graph.indices))
    pairs = graph.n * (graph.n - 1)
    reference = reference_group(adj, rng, K)
    sources = rng.integers(0, adj.n, size=workload.checker_sources)
    estimator = GroupEstimator(adj, sources)
    ref_value = estimator.estimate(reference)
    for op in results:
        for result in op:
            group = [int(v) for v in result.group]
            out.check(
                len(set(group)) == K and all(0 <= v < graph.n for v in group),
                f"{result.algorithm}: group {group} is not {K} distinct node ids",
            )
            out.check(result.converged, f"{result.algorithm}: did not converge")
            value = estimator.estimate(group)
            out.check(
                good_enough(value, ref_value, EPS),
                f"{result.algorithm}: B(C)={value.value:.4g} below "
                f"(1-1/e-eps) of the reference {ref_value.value:.4g}",
            )
            if result.estimate_unbiased is not None:
                claimed = Estimate(
                    result.estimate_unbiased,
                    sample_estimate_stderr(
                        result.estimate_unbiased, result.num_samples // 2, pairs
                    ),
                )
                out.check(
                    agrees(claimed, value),
                    f"{result.algorithm}: unbiased estimate "
                    f"{claimed.value:.4g} disagrees with the checker's "
                    f"{value.value:.4g} +- {value.stderr:.3g}",
                )


def _layer_metrics(tracer: Tracer, results, op_times, untraced_last) -> dict:
    ops = len(results)
    self_s = tracer.self_s
    flat = [r for op in results for r in op]
    samples = sum(r.num_samples for r in flat)
    arcs = sum(r.diagnostics.get("edges_explored", 0) for r in flat)
    rebuilt = sum(
        stats.get("coverage_rebuilt_elements", 0)
        for r in flat
        for stats in r.diagnostics.get("engine", {}).get("stats", [])
    )
    metrics = {
        "graph.build_s": statistics.median(tracer.durations("graph.build")),
        "paths.kernel_s": self_s["paths.kernel"] / ops,
        "paths.walk_s": self_s["paths.walk"] / ops,
        "paths.arcs_per_sample": arcs / samples,
        "paths.ns_per_arc": 1e9 * self_s["paths.kernel"] / arcs if arcs else 0.0,
        "engine.draw_s": tracer.total_s["engine.draw"] / ops,
        "engine.self_s": self_s["engine.draw"] / ops,
        "engine.draw_rss_mb": tracer.draw_rss_mb,
        "session.ingest_s": self_s["session.ingest"] / ops,
        "coverage.greedy_s": self_s["coverage.greedy"] / ops,
        "coverage.validate_s": self_s["coverage.validate"] / ops,
        "coverage.rebuilt_elements": rebuilt / ops,
        "coverage.evaluations": tracer.counts["coverage.greedy"] / ops,
        "bounds.s": self_s["bounds"] / ops,
        "algorithms.iterations": sum(r.iterations for r in flat) / ops,
        "algorithms.other_s": self_s["algorithms"] / ops,
        "trace.query_s": tracer.root_s("algorithms") / ops,
        "trace.overhead_s": op_times[-1] - untraced_last,
    }
    for name in ("serve.queue_wait_s", "serve.compute_s", "serve.mutate_s",
                 "serve.cache_hits", "serve.coalesced", "serve.samples_reused",
                 "store.invalidated", "store.surviving"):
        metrics[name] = 0.0
    return metrics


def self_time_identity(metrics: dict) -> float:
    """``trace.query_s`` minus the sum of the per-layer self times: zero
    up to float rounding when every span nests inside an operation."""
    return metrics["trace.query_s"] - sum(
        metrics[name] for name in SELF_TIME_METRICS.values()
    )

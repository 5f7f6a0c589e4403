"""Layer tracing for the benchmark's traced runs.

:func:`install` replaces the public entry points of each layer of
``repro`` — at the names their callers look them up by — with timing
wrappers, and returns a function that puts the originals back.  Untraced
runs never call it, so they execute the program's own functions.

Every wrapped call becomes a span ``(layer, start, end, depth)`` kept
in memory.  A layer's *self* time is its spans' durations minus the
time of the spans nested directly inside them, so the self times of all
layers add up exactly to the time of the outermost spans.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

from common import maxrss_mb

#: The layers whose self times add up to one traced operation, with the
#: per-layer metric that reports each.
SELF_TIME_METRICS = {
    "paths.kernel": "paths.kernel_s",
    "paths.walk": "paths.walk_s",
    "engine.draw": "engine.self_s",
    "session.ingest": "session.ingest_s",
    "coverage.greedy": "coverage.greedy_s",
    "coverage.validate": "coverage.validate_s",
    "bounds": "bounds.s",
    "algorithms": "algorithms.other_s",
}


class Tracer:
    """In-memory span recorder with per-layer self-time totals."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Work counts read off wrapped calls' return values, per layer.
        self.counts: Counter[str] = Counter()
        #: Growth of the process's peak RSS inside ``engine.draw`` spans.
        self.draw_rss_mb = 0.0
        #: ``(label, seconds)`` of spans whose wrapper asked to be labelled.
        self.labelled: list[tuple[tuple, float]] = []
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, start: float) -> float:
        end = time.perf_counter()
        stack = self._stack()
        children = stack.pop()
        duration = end - start
        self.self_s[layer] += duration - children
        self.total_s[layer] += duration
        self.calls[layer] += 1
        if stack:
            stack[-1] += duration
        self.spans.append((layer, start, end, len(stack)))
        return duration

    def span(self, layer: str):
        """Context manager recording one span of ``layer``."""
        return _Span(self, layer)

    def wrap(self, fn, layer: str, label=None, count=None):
        """``fn`` wrapped in a ``layer`` span; ``label(*args)`` (if
        given) tags the span so callers can match it to a request, and
        ``count(result)`` (if given) adds to :attr:`counts`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss = maxrss_mb() if layer == "engine.draw" else 0.0
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    tracer.counts[layer] += count(result)
                return result
            finally:
                duration = tracer._exit(layer, start)
                if layer == "engine.draw":
                    tracer.draw_rss_mb += maxrss_mb() - rss
                if label is not None:
                    tracer.labelled.append((label(*args), duration))

        traced.__wrapped_by_perfbench__ = True
        return traced

    def root_s(self, layer: str) -> float:
        """Total time of the outermost spans of ``layer``."""
        return sum(
            end - start
            for name, start, end, depth in self.spans
            if name == layer and depth == 0
        )

    def durations(self, layer: str) -> list[float]:
        return [
            end - start for name, start, end, _depth in self.spans if name == layer
        ]

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "draw_rss_mb": self.draw_rss_mb,
            "labelled": [[list(label), seconds] for label, seconds in self.labelled],
            "spans": [list(span) for span in self.spans],
        }


class _Span:
    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.start = self.tracer._enter()
        return self

    def __exit__(self, *_exc):
        self.duration = self.tracer._exit(self.layer, self.start)


def _compute_label(_server, key):
    return (key.dataset, key.algorithm, key.k, key.eps, key.seed, key.version)


def _evaluations(cover) -> int:
    return cover.evaluations


def targets():
    """``(owner, attribute, layer, label, count)`` for every traced entry
    point.

    Module-level functions are patched in the module that *calls* them
    (``repro.paths.sampler`` looks its kernels up in its own globals, the
    algorithms their greedy and bound functions), methods on the class
    that defines them.
    """
    import repro.algorithms.adaalg as adaalg
    import repro.algorithms.centra as centra
    import repro.algorithms.hedge as hedge
    import repro.paths.sampler as sampler
    from repro.coverage.hypergraph import CoverageInstance
    from repro.engine.base import SampleEngine
    from repro.engine.serial import SerialEngine
    from repro.serve.daemon import GBCServer
    from repro.session.session import SamplingSession

    table = [
        (sampler, "bidirectional_search", "paths.kernel"),
        (sampler, "wavefront_search", "paths.kernel"),
        (sampler, "bfs_sigma", "paths.kernel"),
    ]
    table += [
        (sampler.PathSampler, name, "paths.walk")
        for name in ("sample", "sample_many", "sample_batch", "sample_cohort",
                     "sample_pair")
    ]
    table += [
        (SerialEngine, "draw", "engine.draw"),
        (SampleEngine, "extend", "session.ingest"),
        (SamplingSession, "extend", "session.ingest"),
        (CoverageInstance, "covered_count", "coverage.validate"),
    ]
    for module in (adaalg, hedge, centra):
        table.append(
            (module, "greedy_max_cover", "coverage.greedy", None, _evaluations)
        )
    for module, names in (
        (adaalg, ("adaalg_schedule", "epsilon_one")),
        (hedge, ("guess_schedule", "hedge_sample_size")),
        (centra, ("guess_schedule", "centra_sample_size", "monte_carlo_era",
                  "era_deviation_bound")),
    ):
        table += [(module, name, "bounds") for name in names]
    table += [
        (cls, "run", "algorithms")
        for cls in (adaalg.AdaAlg, hedge.Hedge, centra.CentRa)
    ]
    table += [
        (GBCServer, "_compute", "serve.compute", _compute_label),
        (GBCServer, "_apply_mutation", "serve.mutate"),
    ]
    return [entry + (None,) * (5 - len(entry)) for entry in table]


def install(tracer: Tracer):
    """Patch every entry point of :func:`targets`; returns ``restore``."""
    saved = []
    for owner, name, layer, label, count in targets():
        original = owner.__dict__[name]
        saved.append((owner, name, original))
        setattr(owner, name, tracer.wrap(original, layer, label, count))

    def restore() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return restore


def installed() -> list[str]:
    """Names of entry points currently wrapped (empty when untraced)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, *_rest in targets()
        if getattr(owner.__dict__[name], "__wrapped_by_perfbench__", False)
    ]


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare one, in seconds."""

    def bare():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(bare, "calibration")
    start = time.perf_counter()
    for _ in range(calls):
        bare()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - plain, 0.0) / calls

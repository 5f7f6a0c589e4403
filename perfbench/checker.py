"""Independent correctness checker for the benchmark.

Nothing here imports the program under test: the checker keeps its own
adjacency arrays (built from an edge list), its own breadth-first
search with shortest-path counting, its own uniform shortest-path
sampler and greedy cover, and its own estimator of the group
betweenness ``B(C)``.  The benchmark compares the program's answers
against these, never against a saved copy of earlier answers.

Conventions follow the program's defaults: graphs are undirected,
``B(C)`` sums over ordered pairs ``(s, t)``, ``s != t``, the fraction
of shortest ``s``-``t`` paths holding a member of ``C`` *including the
endpoints*, and a disconnected pair contributes 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

APPROX = 1.0 - 1.0 / math.e

#: Standard errors a checked estimate may stray before the check fails.
#: A run makes a few dozen such comparisons and a regression check about
#: a hundred runs, so the per-comparison false-alarm rate must be far
#: below 1e-4; five standard errors gives about 6e-7.
Z_TOLERANCE = 5.0


@dataclass(frozen=True)
class Adjacency:
    """Undirected adjacency in CSR form, owned by the checker."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "Adjacency":
        """``edges`` is an ``(m, 2)`` array listing each edge once."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=dst[order])

    def edges(self) -> np.ndarray:
        """Each edge once, as ``(u, v)`` rows with ``u < v``."""
        return edges_of(self.indptr, self.indices)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


def edges_of(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Edge list of a symmetric CSR given as raw arrays (``u < v`` rows)."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    src = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    keep = src < indices
    return np.stack([src[keep], indices[keep]], axis=1)


def bfs_sigma(
    adj: Adjacency, source: int, blocked: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS from ``source`` counting shortest paths.

    Returns ``(dist, sigma)``: hop distances (-1 = unreachable) and the
    number of shortest paths from ``source``.  Nodes flagged in the
    boolean mask ``blocked`` are removed from the graph.
    """
    n = adj.n
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    if blocked is not None and blocked[source]:
        return dist, sigma
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        starts = adj.indptr[frontier]
        counts = adj.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        first = np.cumsum(counts) - counts
        arc = np.repeat(starts - first, counts) + np.arange(total)
        heads = adj.indices[arc]
        weight = np.repeat(sigma[frontier], counts)
        fresh = dist[heads] == -1
        if blocked is not None:
            fresh &= ~blocked[heads]
        heads = heads[fresh]
        if heads.size == 0:
            break
        depth += 1
        dist[heads] = depth
        frontier = np.flatnonzero(dist == depth)
        sigma += np.bincount(heads, weights=weight[fresh], minlength=n)
    return dist, sigma


# ----------------------------------------------------------------------
# sampling and greedy reference
# ----------------------------------------------------------------------
def walk_back(
    adj: Adjacency, dist: np.ndarray, sigma: np.ndarray, target: int, rng
) -> list[int]:
    """One uniform shortest path from the BFS root to ``target``: each
    step picks a predecessor with probability proportional to its path
    count.  Returned in root-to-target order."""
    path = [int(target)]
    node = int(target)
    while dist[node] > 0:
        preds = adj.neighbors(node)
        preds = preds[dist[preds] == dist[node] - 1]
        weights = np.cumsum(sigma[preds])
        pick = int(np.searchsorted(weights, rng.random() * weights[-1], "right"))
        node = int(preds[min(pick, preds.size - 1)])
        path.append(node)
    return path[::-1]


def sample_paths(
    adj: Adjacency, rng, num_sources: int, per_source: int
) -> list[list[int]]:
    """``num_sources * per_source`` shortest-path samples.

    Sources are uniform; each source serves ``per_source`` uniform
    targets from one BFS.  Every sample is marginally a uniform ordered
    pair with a uniform shortest path between them (an empty list when
    the pair is disconnected), which is all the greedy reference needs.
    Samples that share a source are not independent, so
    :func:`reference_group` covers path interiors only: otherwise the
    few shared sources would top the greedy.
    """
    n = adj.n
    paths = []
    for source in rng.integers(0, n, size=num_sources):
        dist, sigma = bfs_sigma(adj, int(source))
        targets = rng.integers(0, n - 1, size=per_source)
        targets = np.where(targets >= source, targets + 1, targets)
        for target in targets:
            if dist[target] < 0:
                paths.append([])
            else:
                paths.append(walk_back(adj, dist, sigma, int(target), rng))
    return paths


def greedy_cover(paths: list[list[int]], n: int, k: int) -> list[int]:
    """Plain (non-lazy) greedy maximum coverage over node sets."""
    lengths = np.array([len(p) for p in paths], dtype=np.int64)
    flat = np.fromiter((v for p in paths for v in p), dtype=np.int64)
    owner = np.repeat(np.arange(len(paths)), lengths)
    covered = np.zeros(len(paths), dtype=bool)
    group: list[int] = []
    for _ in range(k):
        live = ~covered[owner]
        gains = np.bincount(flat[live], minlength=n)
        gains[group] = -1
        best = int(np.argmax(gains))
        group.append(best)
        covered[owner[flat == best]] = True
    return group


def reference_group(adj: Adjacency, rng, k: int, num_sources: int = 40,
                    per_source: int = 40) -> list[int]:
    """The checker's own greedy top-``k`` group from its own samples."""
    paths = sample_paths(adj, rng, num_sources, per_source)
    return greedy_cover([p[1:-1] for p in paths], adj.n, k)


# ----------------------------------------------------------------------
# B(C) estimation over held-out sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


class GroupEstimator:
    """Estimates ``B(C)`` from whole rows of the pair matrix.

    For each source ``s`` — uniform draws of the checker's own,
    independent of every sample the program took; all ``n`` nodes give
    the exact value — one BFS on
    the graph and one on the graph minus ``C`` give the exact covered
    fraction of every pair ``(s, t)``: 1 if ``s`` or ``t`` is in ``C``,
    else ``1 - sigma'(t)/sigma(t)`` when removing ``C`` keeps the
    distance and 1 when it does not.  ``n`` times the mean row sum is
    unbiased for ``B(C)``.
    """

    def __init__(self, adj: Adjacency, sources):
        self.adj = adj
        self.sources = [int(s) for s in sources]
        self._full = [bfs_sigma(adj, s) for s in self.sources]
        self._cache: dict[tuple[int, ...], Estimate] = {}

    def estimate(self, group) -> Estimate:
        key = tuple(sorted(int(v) for v in group))
        if key not in self._cache:
            self._cache[key] = self._estimate(key)
        return self._cache[key]

    def _estimate(self, group: tuple[int, ...]) -> Estimate:
        n = self.adj.n
        member = np.zeros(n, dtype=bool)
        member[list(group)] = True
        rows = []
        for source, (dist, sigma) in zip(self.sources, self._full):
            reach = dist > 0
            if member[source]:
                rows.append(float(reach.sum()))
                continue
            dist_c, sigma_c = bfs_sigma(self.adj, source, blocked=member)
            kept = reach & ~member & (dist_c == dist)
            avoid = np.zeros(n)
            avoid[kept] = sigma_c[kept] / sigma[kept]
            rows.append(float(reach.sum() - avoid.sum()))
        rows = np.asarray(rows)
        stderr = n * rows.std(ddof=1) / math.sqrt(rows.size) if rows.size > 1 else 0.0
        return Estimate(value=n * float(rows.mean()), stderr=float(stderr))


def sample_estimate_stderr(estimate: float, samples: int, pairs: int) -> float:
    """Standard error of ``covered / samples * pairs`` (binomial)."""
    p = min(max(estimate / pairs, 0.0), 1.0)
    return pairs * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)


def agrees(a: Estimate, b: Estimate) -> bool:
    return abs(a.value - b.value) <= Z_TOLERANCE * math.hypot(a.stderr, b.stderr)


def good_enough(group: Estimate, reference: Estimate, eps: float) -> bool:
    """``B(group) >= (1 - 1/e - eps) B(reference)`` up to sampling error."""
    slack = Z_TOLERANCE * math.hypot(group.stderr, reference.stderr)
    return group.value >= (APPROX - eps) * reference.value - slack


# ----------------------------------------------------------------------
# stored-sample audit
# ----------------------------------------------------------------------
def path_ends(adj: Adjacency, nodes: np.ndarray) -> tuple[int, int] | None:
    """The two ends of ``nodes`` if their induced subgraph is a simple
    path through all of them, else ``None``."""
    members = {int(v) for v in nodes}
    if len(members) != len(nodes):
        return None
    if len(members) == 1:
        (only,) = members
        return only, only
    links = {
        v: [int(u) for u in adj.neighbors(v) if int(u) in members] for v in members
    }
    if sum(len(nbrs) for nbrs in links.values()) != 2 * (len(members) - 1):
        return None
    ends = [v for v, nbrs in links.items() if len(nbrs) == 1]
    if len(ends) != 2 or any(len(nbrs) > 2 for nbrs in links.values()):
        return None
    seen, prev, node = 1, -1, ends[0]
    while node != ends[1]:
        prev, node = node, next(u for u in links[node] if u != prev)
        seen += 1
    return (ends[0], ends[1]) if seen == len(members) else None


def audit_paths(adj: Adjacency, stores) -> tuple[int, int]:
    """``(stored, bad)``: how many node sets ``stores`` hold and how many
    of them are *not* shortest paths of ``adj``.

    ``stores`` yields ``(flat, offsets)`` pairs, one per sample store.
    A set ``S`` is a shortest path iff its induced subgraph is a simple
    path and its two ends lie ``|S| - 1`` hops apart (a chord or a
    shorter detour would break one of the two).  Empty sets are null
    samples of disconnected pairs and are skipped.
    """
    stored = bad = 0
    by_end: dict[int, list[tuple[int, int]]] = {}
    for flat, offsets in stores:
        stored += offsets.size - 1
        for start, stop in zip(offsets[:-1], offsets[1:]):
            if stop == start:
                continue
            ends = path_ends(adj, flat[start:stop])
            if ends is None:
                bad += 1
                continue
            by_end.setdefault(ends[0], []).append((ends[1], int(stop - start) - 1))
    for source, wanted in by_end.items():
        dist = bfs_sigma(adj, source)[0]
        bad += sum(1 for target, hops in wanted if dist[target] != hops)
    return stored, bad

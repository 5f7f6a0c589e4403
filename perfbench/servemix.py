"""``serve-mixed``: a ``repro-gbc serve`` daemon under two closed-loop clients.

The daemon holds SyntheticNetwork-BA and GrQc.  Each client keeps to its
own dataset and repeats *rounds* until the run's time is up and at least
:data:`MIN_ROUNDS` rounds were made, so every run is a whole number of
identical rounds.  A round, with a fresh query seed, has four steps; the
clients meet at a barrier after each, so the same kinds of query meet at
the daemon's single compute thread in every round:

1. a cold query (a new warm lane; the GrQc client sends it
   :data:`STAGGER_S` later), then repeats of it, which the daemon answers
   from its result cache;
2. the same seed at a tighter eps, answered from the warm lane with a
   top-up, then repeats;
3. the same seed at each of :data:`EPS_LOOSER`, answered from the warm
   lane's samples alone;
4. on GrQc only: a ``mutate`` with a 1% edge delta (half deletions of
   present edges, half insertions of absent ones), then the tighter query
   again on the new graph version, then repeats.

Every operation is timed at the client, from the send to the reply.
Each client waits for its reply before sending again (closed loop), so
queue wait at the compute thread shows up in latency.

After the window the daemon is stopped with SIGTERM; it drains and
checkpoints its warm lanes to ``--warm-dir``, and every sample stored in
the mutated dataset's lanes is audited against its final graph.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checker import (
    Adjacency,
    Estimate,
    GroupEstimator,
    agrees,
    audit_paths,
    edges_of,
    good_enough,
    reference_group,
    sample_estimate_stderr,
)
from common import Outcome, child_peak_rss_mb, p95, quartiles, seed_stream
from layertrace import SELF_TIME_METRICS, wrapper_cost_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SAMPLING_WORKERS = 0
CLIENTS = 2
MUTATING = "GrQc"
DATASETS = ("SyntheticNetwork-BA", MUTATING)
K = 10
EPS_COLD = 0.5
EPS_WARM = 0.4
GAMMA = 0.01
#: Looser eps values each client asks after its warm query.  The lane
#: already holds the samples they need, so each is answered from the warm
#: pool (greedy and validation, no sampling) in tens of milliseconds.
#: They are over half of all operations, so the median operation is
#: program work; when cache hits were the majority, the median was a
#: 0.2 ms round trip that doubled whenever the host got busier.  They
#: have a step of the round to themselves, so they never queue behind a
#: sampling query.
EPS_LOOSER = tuple(round(0.5 + 0.01 * i, 2) for i in range(1, 13))
#: Cache-hit repeats after each cold, warm and post-mutate query.  A round
#: is then 40 operations, 6 of them sampling queries or mutates.
REPEATS = 2
#: Steps of a round, each ended at the barrier (see :meth:`Client._round`).
STEPS_PER_ROUND = 4
#: Rounds a run makes even when its time is up sooner: 5 rounds are 200
#: operations, so the 95th percentile has ten beyond it, and on a 2-CPU
#: machine they take longer than 10 s, so every run there makes the same
#: operations.
MIN_ROUNDS = 5
#: The GrQc client starts each round this long after the BA client, so
#: the compute thread always takes their cold queries in the same order;
#: left to a race, which one waits for the other changes from round to
#: round and with it the tail of the latency distribution.
STAGGER_S = 0.02
#: The datasets' generator seed (the serve default), fixed for every run
#: so that sample counts measure the program, not which graphs a seed
#: drew (see BA_GRAPH_SEED in opload.py); ``--seed`` draws the query
#: seeds and the edge deltas.
GRAPH_SEED = 0
DELTA_SHARE = 0.01
SETUP_REPEATS = 3
CHECKER_SOURCES = 128
SALT = 4
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 120.0


class Daemon:
    """One ``repro-gbc serve`` subprocess on an ephemeral port."""

    def __init__(self, workdir: Path, tag: str, graph_seed: int, traced: bool):
        self.ready = workdir / f"ready-{tag}.json"
        self.warm = workdir / f"warm-{tag}"
        self.summary = workdir / f"spans-{tag}.json"
        self.log = workdir / f"daemon-{tag}.log"
        command = [sys.executable]
        if traced:
            command += [str(HERE / "daemon.py"), str(self.summary)]
        else:
            command += ["-m", "repro"]
        command += ["serve", "--seed", str(graph_seed), "--port", "0"]
        for name in DATASETS:
            command += ["--dataset", name]
        command += ["--ready-file", str(self.ready), "--warm-dir", str(self.warm)]
        self.command = command
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.ready_s = 0.0

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        began = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.command, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        while True:
            if self.ready.exists():
                try:
                    self.port = int(json.loads(self.ready.read_text())["port"])
                    break
                except (ValueError, KeyError):
                    pass  # the file is still being written
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during start-up; see {self.log}")
            if time.perf_counter() - began > START_TIMEOUT_S:
                self.kill()
                raise RuntimeError("daemon did not become ready in time")
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - began

    def stop(self) -> int:
        """SIGTERM, then wait for the drain to finish."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not drain in time")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Replica:
    """The checker's own copy of one dataset's edges, mutated alongside
    the daemon's."""

    def __init__(self, n: int, edges: np.ndarray):
        self.n = n
        self.edges = {(int(u), int(v)) for u, v in edges}
        self.versions = [self.adjacency()]

    def adjacency(self) -> Adjacency:
        return Adjacency.from_edges(self.n, np.array(sorted(self.edges)))

    def delta(self, rng) -> tuple[list, list]:
        """A delta of ``DELTA_SHARE`` of the edges: half deletions of
        present edges, half insertions of absent ones."""
        half = max(1, round(DELTA_SHARE * len(self.edges) / 2))
        present = sorted(self.edges)
        picks = rng.choice(len(present), size=half, replace=False)
        deletes = [present[i] for i in sorted(picks)]
        inserts: list[tuple[int, int]] = []
        while len(inserts) < half:
            u, v = (int(x) for x in rng.integers(0, self.n, size=2))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in self.edges and edge not in inserts:
                inserts.append(edge)
        self.edges.difference_update(deletes)
        self.edges.update(inserts)
        self.versions.append(self.adjacency())
        return inserts, deletes


class Rounds:
    """The barrier both clients cross after each step of a round, and
    their shared stop rule: stop once the run's time is up and
    :data:`MIN_ROUNDS` rounds were made."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.began = time.perf_counter()
        self.crossings = 0
        self.stop = False
        self.barrier = threading.Barrier(CLIENTS, action=self._crossed)

    def _crossed(self) -> None:
        # runs in one client thread while the other waits at the barrier
        self.crossings += 1
        made, step = divmod(self.crossings, STEPS_PER_ROUND)
        elapsed = time.perf_counter() - self.began
        self.stop = step == 0 and made >= MIN_ROUNDS and elapsed >= self.seconds

    def sync(self) -> None:
        self.barrier.wait(timeout=300.0)


class Client(threading.Thread):
    """One closed-loop client keeping to one dataset."""

    def __init__(self, dataset, port, rng, replica, rounds, delay):
        super().__init__(name=f"client-{dataset}")
        self.dataset = dataset
        self.port = port
        self.rng = rng
        self.replica = replica
        self.rounds = rounds
        self.delay = delay
        self.ops: list[dict] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        from repro.serve.client import ServeClient

        try:
            with ServeClient(port=self.port, timeout=300.0) as client:
                while not self.rounds.stop:
                    self._round(client)
        except BaseException as exc:  # reported by the caller
            self.error = exc
            self.rounds.barrier.abort()  # release the other client

    def _send(self, client, kind: str, frame: dict, version: int) -> dict:
        start = time.perf_counter()
        answer = client.request(frame)
        latency = time.perf_counter() - start
        self.ops.append(
            {"kind": kind, "frame": frame, "version": version,
             "latency": latency, "sent": start, "answer": answer}
        )
        return answer

    def _query(self, client, kind, frame, version, repeats=REPEATS) -> None:
        self._send(client, kind, frame, version)
        for _ in range(repeats):
            self._send(client, "repeat", frame, version)

    def _round(self, client) -> None:
        """The round's :data:`STEPS_PER_ROUND` steps, each ended at the
        barrier so that both clients' queries of one kind meet at the
        compute thread."""
        seed = int(self.rng.integers(2**31))
        version = len(self.replica.versions) - 1
        query = {"op": "query", "dataset": self.dataset, "algorithm": "adaalg",
                 "k": K, "gamma": GAMMA, "seed": seed}
        warm = {**query, "eps": EPS_WARM}
        time.sleep(self.delay)
        self._query(client, "cold", {**query, "eps": EPS_COLD}, version)
        self.rounds.sync()
        self._query(client, "warm", warm, version)
        self.rounds.sync()
        for eps in EPS_LOOSER:
            self._query(client, "looser", {**query, "eps": eps}, version, 0)
        self.rounds.sync()
        if self.dataset == MUTATING:
            inserts, deletes = self.replica.delta(self.rng)
            mutate = {"op": "mutate", "dataset": self.dataset,
                      "insert": [list(e) for e in inserts],
                      "delete": [list(e) for e in deletes], "touch_radius": 1}
            self._send(client, "mutate", mutate, version + 1)
            self._query(client, "requery", warm, version + 1)
        self.rounds.sync()


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.datasets import load

    out = Outcome()
    stream = seed_stream(seed, SALT)
    workdir = ROOT / ".perfbench_runs" / f"serve-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        graphs = {name: load(name, seed=GRAPH_SEED) for name in DATASETS}
        replicas = {
            name: Replica(g.n, edges_of(g.indptr, g.indices))
            for name, g in graphs.items()
        }
        setup_times = []
        for index in range(SETUP_REPEATS - 1):
            probe = Daemon(workdir, f"setup{index}", GRAPH_SEED, traced=False)
            try:
                probe.start()
                setup_times.append(probe.ready_s)
            finally:
                out.check(probe.stop() == 0, "set-up daemon did not exit cleanly")
        daemon = Daemon(workdir, "main", GRAPH_SEED, traced)
        try:
            daemon.start()
            setup_times.append(daemon.ready_s)
            clients, wall = _drive(daemon.port, stream, replicas, seconds)
            peak = child_peak_rss_mb(daemon.proc.pid)
            stats = _stats(daemon.port)
        finally:
            code = daemon.stop()
        out.check(code == 0, f"daemon exited with {code} after SIGTERM")
        for client in clients:
            if client.error is not None:
                raise RuntimeError(f"{client.name} failed: {client.error!r}")
        ops = [op for client in clients for op in client.ops]
        out.attempted = len(ops)
        out.failed = sum(1 for op in ops if not op["answer"].get("ok"))
        for op in ops:
            if not op["answer"].get("ok"):
                out.problems.append(f"{op['kind']} failed: {op['answer'].get('error')}")

        _check_answers(out, ops, graphs, replicas, seed)
        audit = _audit(out, daemon.warm, replicas)

        latencies = [op["latency"] for op in ops]
        counters = stats["counters"]
        drawn = counters.get("engine.samples", 0)
        out.repeats = {"setup_s": setup_times, "query_s": latencies}
        out.metrics = {
            "setup_s": statistics.median(setup_times),
            "query_s": statistics.median(latencies),
            "query_p95_s": p95(latencies),
            "queries_per_s": len(ops) / wall,
            "samples_per_s": drawn / wall,
            "samples": drawn / len(ops),
            "peak_rss_mb": peak,
        }
        mutations = [
            op["answer"]["mutated"]
            for op in ops
            if op["kind"] == "mutate" and op["answer"].get("ok")
        ]
        if traced:
            summary = json.loads(daemon.summary.read_text())
            out.metrics.update(_layer_metrics(summary, ops, counters, mutations))
            out.spans = summary["spans"]
        out.details = {
            "graph_seed": GRAPH_SEED,
            "latency_by_kind": {
                f"{kind}/{op_dataset}": quartiles(
                    [op["latency"] for op in ops
                     if op["kind"] == kind and op["frame"]["dataset"] == op_dataset]
                )
                for kind in ("cold", "warm", "looser", "requery", "mutate", "repeat")
                for op_dataset in DATASETS
                if any(op["kind"] == kind and op["frame"]["dataset"] == op_dataset
                       for op in ops)
            },
            "sources": {
                source: sum(
                    1 for op in ops
                    if op["answer"].get("served", {}).get("source") == source
                )
                for source in ("cache", "computed", "coalesced")
            },
            "mutations": mutations,
            "audit": audit,
            "counters": counters,
        }
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _drive(port, stream, replicas, seconds):
    rounds = Rounds(seconds)
    clients = [
        Client(name, port, np.random.default_rng(stream.integers(2**63)),
               replicas[name], rounds, delay)
        for name, delay in zip(DATASETS, (0.0, STAGGER_S))
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    ends = [op["sent"] + op["latency"] for c in clients for op in c.ops]
    return clients, max(ends) - rounds.began


def _stats(port) -> dict:
    from repro.serve.client import ServeClient

    with ServeClient(port=port) as client:
        return client.stats()


def _program_graphs(graphs, ops):
    """The program's own graph at every version of the mutated dataset:
    the loaded graph with each delta applied through the delta overlay,
    as the daemon applies them."""
    from repro.graph.delta import DeltaGraph, GraphUpdate

    versions = {name: [graph] for name, graph in graphs.items()}
    for op in ops:
        if op["kind"] != "mutate":
            continue
        frame = op["frame"]
        overlay = DeltaGraph(versions[frame["dataset"]][-1], touch_radius=1)
        overlay.apply(GraphUpdate.from_ops(
            [tuple(e) + (1,) for e in frame["insert"]],
            [tuple(e) for e in frame["delete"]],
        ))
        versions[frame["dataset"]].append(overlay.compact())
    return versions


def _check_answers(out, ops, graphs, replicas, seed) -> None:
    """Cold answers equal an in-process run; cache hits equal the answer
    they repeat; every computed group passes the independent checker."""
    from repro.algorithms import AdaAlg
    from repro.serve.protocol import result_payload

    program = _program_graphs(graphs, [op for op in ops if op["answer"].get("ok")])
    for name, replica in replicas.items():
        for version, graph in enumerate(program[name]):
            mine = replica.versions[version].edges()
            theirs = edges_of(graph.indptr, graph.indices)
            out.check(
                mine.shape == theirs.shape and bool((mine == theirs).all()),
                f"{name} v{version}: the program's graph differs from the "
                "checker's replica",
            )
    computed: dict[tuple, dict] = {}
    checkers: dict[tuple, tuple] = {}
    rng = seed_stream(seed, 100 + SALT)
    for op in ops:
        answer = op["answer"]
        if op["kind"] == "mutate" or not answer.get("ok"):
            continue
        frame, version = op["frame"], op["version"]
        key = (frame["dataset"], frame["eps"], frame["seed"], version)
        result = answer["result"]
        group = [int(v) for v in result["group"]]
        n = graphs[frame["dataset"]].n
        out.check(
            len(set(group)) == K and all(0 <= v < n for v in group),
            f"{key}: group {group} is not {K} distinct node ids",
        )
        source = answer["served"]["source"]
        if source == "cache":
            out.check(result == computed.get(key), f"{key}: cache hit differs")
            continue
        computed[key] = result
        if op["kind"] == "cold":
            out.check(answer["served"]["samples_reused"] == 0,
                      f"{key}: cold query reused samples")
            local = AdaAlg(eps=frame["eps"], gamma=GAMMA, seed=frame["seed"])
            graph = program[frame["dataset"]][version]
            payload = json.loads(json.dumps(result_payload(local.run(graph, K), K)))
            out.check(payload == result, f"{key}: cold answer differs from an "
                      "in-process run of the same query")
        if (frame["dataset"], version) not in checkers:
            adj = replicas[frame["dataset"]].versions[version]
            reference = reference_group(adj, rng, K)
            estimator = GroupEstimator(
                adj, rng.integers(0, adj.n, size=CHECKER_SOURCES)
            )
            checkers[(frame["dataset"], version)] = (
                estimator, estimator.estimate(reference)
            )
        estimator, ref_value = checkers[(frame["dataset"], version)]
        value = estimator.estimate(group)
        out.check(good_enough(value, ref_value, frame["eps"]),
                  f"{key}: B(C)={value.value:.4g} below (1-1/e-eps) of the "
                  f"reference {ref_value.value:.4g}")
        pairs = n * (n - 1)
        claimed = Estimate(
            result["estimate_unbiased"],
            sample_estimate_stderr(
                result["estimate_unbiased"], result["num_samples"] // 2, pairs
            ),
        )
        out.check(agrees(claimed, value),
                  f"{key}: unbiased estimate {claimed.value:.4g} disagrees "
                  f"with the checker's {value.value:.4g} +- {value.stderr:.3g}")


def _audit(out, warm_dir: Path, replicas) -> dict:
    """Every sample in the drained warm lanes of the mutated dataset is a
    shortest path of its final graph."""
    files = sorted(warm_dir.glob(f"{MUTATING}__*.warm.npz"))
    out.check(bool(files), "the drain wrote no warm-lane checkpoints")
    stores = []
    for path in files:
        with np.load(path, allow_pickle=False) as payload:
            for name in payload.files:
                if name.endswith("_flat"):
                    lane = name[: -len("_flat")]
                    stores.append((payload[name], payload[f"{lane}_offsets"]))
    stored, stale = audit_paths(replicas[MUTATING].versions[-1], stores)
    out.check(stale == 0, f"{stale} of {stored} stored samples are not "
              "shortest paths of the final graph")
    return {"files": len(files), "stored": stored, "stale": stale}


def _layer_metrics(summary, ops, counters, mutations) -> dict:
    attempted = len(ops)
    self_s = summary["self_s"]
    total_s = summary["total_s"]
    calls = summary["calls"]
    computed = {}
    for label, seconds in summary["labelled"]:
        dataset, _algorithm, _k, eps, seed, version = label
        computed[(dataset, eps, seed, version)] = seconds
    waits, compute = [], []
    for op in ops:
        if op["answer"].get("served", {}).get("source") != "computed":
            continue
        frame = op["frame"]
        key = (frame["dataset"], frame["eps"], frame["seed"], op["version"])
        seconds = computed[key]
        compute.append(seconds)
        waits.append(op["latency"] - seconds)
    arcs = counters.get("engine.edges_explored", 0)
    drawn = counters.get("engine.samples", 0)
    iterations = [
        op["answer"]["result"]["iterations"]
        for op in ops
        if op["answer"].get("served", {}).get("source") == "computed"
    ]
    metrics = {
        "graph.build_s": total_s.get("graph.build", 0.0),
        "paths.arcs_per_sample": arcs / drawn if drawn else 0.0,
        "paths.ns_per_arc": (
            1e9 * self_s.get("paths.kernel", 0.0) / arcs if arcs else 0.0
        ),
        "engine.draw_s": total_s.get("engine.draw", 0.0) / attempted,
        "engine.draw_rss_mb": summary["draw_rss_mb"],
        "coverage.rebuilt_elements": (
            counters.get("coverage.rebuilt_elements", 0) / attempted
        ),
        "coverage.evaluations": summary["counts"].get("coverage.greedy", 0) / attempted,
        "algorithms.iterations": statistics.mean(iterations) if iterations else 0.0,
        "serve.queue_wait_s": statistics.mean(waits) if waits else 0.0,
        "serve.compute_s": statistics.mean(compute) if compute else 0.0,
        "serve.mutate_s": (
            total_s.get("serve.mutate", 0.0) / len(mutations) if mutations else 0.0
        ),
        "serve.cache_hits": counters.get("serve.cache_hits", 0),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.samples_reused": counters.get("serve.samples_reused", 0),
        "store.invalidated": (
            statistics.mean(m["invalidated"] for m in mutations) if mutations else 0.0
        ),
        "store.surviving": (
            statistics.mean(m["surviving"] for m in mutations) if mutations else 0.0
        ),
        "trace.query_s": statistics.median(op["latency"] for op in ops),
        # the daemon cannot replay its run untraced, so the overhead is
        # the measured cost of one wrapper times the wrapped calls made
        "trace.overhead_s": wrapper_cost_s() * sum(calls.values()) / attempted,
    }
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = self_s.get(layer, 0.0) / attempted
    return metrics

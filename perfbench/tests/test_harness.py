"""Traced and untraced runs, the serve workload, and the harness's refusals."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import opload
import run as bench

HERE = Path(__file__).resolve().parent.parent


def tiny(min_ops=2):
    from repro.graph import barabasi_albert

    return opload.OpWorkload(
        name="tiny", salt=9, graph_seed=None,
        build=lambda seed: barabasi_albert(400, 3, seed=seed), setup_repeats=2,
        algorithms=("adaalg",), engine="serial", checker_sources=64,
        min_ops=min_ops,
    )


def test_untraced_run_executes_the_unwrapped_functions(monkeypatch):
    import repro.paths.bidirectional as bidirectional
    import repro.paths.sampler as sampler

    def refuse(*_args):
        raise AssertionError("a wrapper ran in an untraced run")

    monkeypatch.setattr(layertrace.Tracer, "_enter", refuse)
    outcome = opload.run(tiny(), seed=3, seconds=0, traced=False)
    assert outcome.attempted == 2 and outcome.failed == 0
    assert not outcome.problems
    assert layertrace.installed() == []
    assert sampler.bidirectional_search is bidirectional.bidirectional_search


def test_traced_run_accounts_for_the_whole_query():
    outcome = opload.run(tiny(), seed=3, seconds=0, traced=True)
    metrics = outcome.metrics
    assert not outcome.problems
    assert layertrace.installed() == []  # originals restored
    assert metrics["paths.kernel_s"] > 0 and metrics["paths.walk_s"] > 0
    assert metrics["coverage.evaluations"] > 0
    gap = opload.self_time_identity(metrics)
    assert abs(gap) < 1e-9 + 1e-6 * metrics["trace.query_s"]
    assert metrics["engine.draw_s"] == pytest.approx(
        metrics["paths.kernel_s"] + metrics["paths.walk_s"] + metrics["engine.self_s"]
    )


def test_install_restores_every_entry_point():
    originals = [owner.__dict__[name] for owner, name, *_ in layertrace.targets()]
    restore = layertrace.install(layertrace.Tracer())
    try:
        assert len(layertrace.installed()) == len(originals)
    finally:
        restore()
    now = [owner.__dict__[name] for owner, name, *_ in layertrace.targets()]
    assert now == originals


def test_refuses_more_sampling_workers_than_cpus(monkeypatch):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    bench.check_concurrency("w", 2, 2)
    with pytest.raises(SystemExit):
        bench.check_concurrency("w", 3, 1)
    with pytest.raises(SystemExit):
        bench.check_concurrency("w", 0, 3)


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("tests", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-grqc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_serve_round_traced(monkeypatch):
    import common
    import servemix

    monkeypatch.setattr(servemix, "MIN_ROUNDS", 1)
    monkeypatch.setattr(servemix, "REPEATS", 2)
    monkeypatch.setattr(servemix, "EPS_LOOSER", (0.55,))
    outcome = servemix.run(seed=5, seconds=0, traced=True)
    assert not outcome.problems
    # one round: cold, warm (2 repeats each) and one looser query on
    # each dataset; then a mutate and the requery (2 repeats) on GrQc
    assert outcome.attempted == 2 * 7 + 4 and outcome.failed == 0
    assert set(common.PER_LAYER) <= set(outcome.metrics)
    assert outcome.details["audit"]["stored"] > 0
    assert outcome.metrics["serve.cache_hits"] == 10
    assert outcome.metrics["serve.compute_s"] > 0
    assert outcome.spans


def test_edge_delta_is_one_percent_of_edges():
    import numpy as np

    import servemix

    edges = np.array(
        [(u, v) for u in range(40) for v in range(u + 1, 40) if (u + v) % 3 == 0]
    )
    replica = servemix.Replica(40, edges)
    before = set(replica.edges)
    inserts, deletes = replica.delta(np.random.default_rng(0))
    half = round(servemix.DELTA_SHARE * len(before) / 2)
    assert len(inserts) == len(deletes) == half
    assert set(deletes) <= before and not set(inserts) & before
    assert replica.edges == (before - set(deletes)) | set(inserts)
    assert len(replica.versions) == 2


def test_p95_is_nearest_rank():
    import common

    assert common.p95(range(1, 21)) == 19
    assert common.p95([3.0, 1.0, 2.0]) == 3.0

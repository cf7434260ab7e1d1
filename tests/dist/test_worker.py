"""The dist worker's envelope handler, in-process, and its one thread.

``_serve_batch`` is what a forked worker runs for every ``"batch"``
envelope; calling it directly puts the answer path under the same
oracle and telemetry checks as the in-process scheduler, where coverage
follows.  The last test pins the process shape: a worker answers on the
thread that reads its pipe, so it never runs a second thread.
"""

import os

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.dist.router import DistRouter
from repro.dist.worker import (_ERROR_TYPES, _serve_batch, unpack_error,
                               unpack_result)
from repro.errors import ServiceError
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.parallel.sharding import fork_available
from repro.service.pool import SessionPool
from repro.service.telemetry import Telemetry, merge_snapshots

SHAPES = [(2, 2), (2, 3), (3, 3)]
GRAPH = power_law_bipartite(60, 50, 280, seed=5)
#: tests/service/test_accuracy.py's graph: every exact plan at (3, 3)
#: predicts far beyond a 10 ms budget
DENSE = random_bipartite(200, 150, 3000, seed=3)


def make_pool() -> SessionPool:
    pool = SessionPool()
    pool.register("g", GRAPH)
    pool.register("dense", DENSE)
    return pool


def exact_items(shapes, first_rid=1) -> list:
    return [(rid, p, q, "GBC", "exact", None)
            for rid, (p, q) in enumerate(shapes, first_rid)]


def test_ok_payloads_rebuild_to_direct_counts():
    telemetry = Telemetry()
    replies = _serve_batch(make_pool(), telemetry, "fast", "g",
                           exact_items(SHAPES))
    assert [rid for rid, _, _ in replies] == [1, 2, 3]
    for (rid, status, payload), (p, q) in zip(replies, SHAPES):
        assert status == "ok", payload
        result = unpack_result(payload)
        assert result.query == BicliqueQuery(p, q)
        assert result.count == gbc_count(GRAPH, BicliqueQuery(p, q),
                                         backend="fast").count
    snap = telemetry.snapshot()
    assert snap["completed"] == 3
    assert snap["failed"] == snap["expired"] == 0


def test_unknown_graph_fails_every_item_with_an_allowlisted_error():
    telemetry = Telemetry()
    replies = _serve_batch(make_pool(), telemetry, "fast", "nope",
                           exact_items(SHAPES))
    assert [rid for rid, _, _ in replies] == [1, 2, 3]
    for rid, status, payload in replies:
        assert status == "err"
        assert payload[0] in _ERROR_TYPES
        assert isinstance(unpack_error(payload, 0), ServiceError)
    snap = telemetry.snapshot()
    assert snap["failed"] == 3
    assert snap["completed"] == 0


def test_exact_item_over_its_budget_expires_and_auto_samples():
    pool, telemetry = make_pool(), Telemetry()
    [(rid, status, payload)] = _serve_batch(
        pool, telemetry, "fast", "dense",
        [(1, 3, 3, "GBC", "exact", 0.01)])
    assert (rid, status, payload[0]) == (1, "err",
                                         "DeadlineExceededError")
    snap = telemetry.snapshot()
    assert snap["expired"] == 1
    assert snap["failed"] == 0           # a miss is not a malfunction

    [(rid, status, payload)] = _serve_batch(
        pool, telemetry, "fast", "dense",
        [(2, 3, 3, "auto", "auto", 0.01)])
    assert status == "ok", payload
    result = unpack_result(payload)
    assert result.algorithm == "approx"
    assert result.extras["ci95"] >= 0.0
    assert telemetry.snapshot()["approx_completed"] == 1


def test_worker_telemetry_folds_through_merge_snapshots():
    pool = make_pool()
    workers = [Telemetry(), Telemetry()]
    _serve_batch(pool, workers[0], "fast", "g", exact_items(SHAPES))
    _serve_batch(pool, workers[1], "fast", "g",
                 exact_items(SHAPES[:2], first_rid=4))
    _serve_batch(pool, workers[1], "fast", "g",
                 exact_items(SHAPES[2:], first_rid=6))
    merged = merge_snapshots([t.snapshot(include_samples=True)
                              for t in workers])
    assert merged["workers"] == 2
    assert merged["submitted"] == 6
    assert merged["completed"] == 6
    # one batch per envelope, sized by its item count
    assert merged["batches"]["count"] == 3
    assert merged["batches"]["histogram"] == {"1": 1, "2": 1, "3": 1}
    assert merged["latency_ms"]["samples"] == 6


@pytest.mark.skipif(not fork_available()
                    or not os.path.isdir("/proc/self/task"),
                    reason="needs fork and a Linux /proc")
def test_each_worker_process_runs_one_thread():
    graphs = {"g": GRAPH,
              "big": power_law_bipartite(70, 55, 320, seed=7)}
    # "g" is replicated, so both workers serve batch envelopes too
    with DistRouter(graphs, workers=2, hot=("g",), partitioned=("big",),
                    backend="fast") as router:
        for name in graphs:
            for p, q in SHAPES:
                router.count(name, p, q, timeout=60)
        for pid in router.worker_pids():
            assert os.listdir(f"/proc/{pid}/task") == [str(pid)], pid

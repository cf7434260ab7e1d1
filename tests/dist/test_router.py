"""DistRouter: oracle-exact serving, fallback, failure paths.

The load-bearing guarantee is bit-identical counts: every routing kind
(single, replicated, partitioned) must return exactly what a direct
single-process count returns.  The fallback tests pin the graceful
degradation contract — ``workers=1`` or no ``fork`` serves identically
in-process with one WARNING — and the rest covers the distributed
re-interpretations of the Scheduler failure paths.
"""

import logging
import time

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.dist.router import DistRouter
from repro.errors import (DeadlineExceededError, QueueFullError,
                          ServiceError)
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.parallel.sharding import fork_available
from tests.occupy import occupy_workers

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="no fork on this platform")

SHAPES = [(2, 2), (2, 3), (3, 3)]


def make_graphs() -> dict:
    return {
        "hot": power_law_bipartite(60, 50, 280, seed=5),
        "warm": random_bipartite(50, 40, 220, seed=6),
        "big": power_law_bipartite(70, 55, 320, seed=7),
    }


def oracle(graphs: dict) -> dict:
    return {(name, p, q): gbc_count(g, BicliqueQuery(p, q),
                                    backend="fast").count
            for name, g in graphs.items() for p, q in SHAPES}


@needs_fork
def test_dist_counts_match_oracle_across_route_kinds():
    graphs = make_graphs()
    expected = oracle(graphs)
    with DistRouter(graphs, workers=3, replication=2, hot=("hot",),
                    partitioned=("big",), backend="fast") as router:
        assert router.distributed
        table = router.routing_table()
        assert table["big"]["kind"] == "partitioned"
        assert table["hot"]["kind"] == "replicated"
        assert table["warm"]["kind"] == "single"
        for (name, p, q), want in sorted(expected.items()):
            got = router.count(name, p, q)
            assert got.count == want, (name, p, q)
        # replicated graphs answer identically from every replica
        repeats = [router.count("hot", 2, 2).count for _ in range(4)]
        assert set(repeats) == {expected[("hot", 2, 2)]}


@needs_fork
def test_partitioned_result_is_tagged():
    graphs = make_graphs()
    shapes = [(2, 2), (3, 3)]
    with DistRouter(graphs, workers=2, partitioned=("big",),
                    backend="fast") as router:
        res = router.count("big", 2, 2)
        assert res.algorithm == "partitioned"
        owners = router.routing_table()["big"]["owners"]
        assert res.extras["partitions"] == float(len(owners))
        assert res.count == gbc_count(graphs["big"], BicliqueQuery(2, 2),
                                      backend="fast").count
        # the fan-out reaches every worker, and every shard does work
        assert owners == [0, 1]
        partials = []
        for w in owners:
            tag, counts = router._handles[w].call(("partial", "big",
                                                   shapes))
            assert tag == "partial"
            assert all(counts[shape] > 0 for shape in shapes), (w, counts)
            partials.append(counts)
        for shape in shapes:
            assert sum(part[shape] for part in partials) == gbc_count(
                graphs["big"], BicliqueQuery(*shape), backend="fast").count


def test_partial_counter_counts_on_the_worker_backend(monkeypatch):
    """A partitioned worker counts its roots on the router's backend,
    not on count_roots' default (the instrumented sim engine)."""
    import repro.dist.worker as worker_mod

    seen = []
    real = worker_mod.count_roots

    def spy(*args, **kwargs):
        seen.append(kwargs.get("backend"))
        return real(*args, **kwargs)

    monkeypatch.setattr(worker_mod, "count_roots", spy)
    graph = make_graphs()["big"]
    counter = worker_mod._PartialCounter(graph, range(graph.num_u),
                                         "native")
    assert counter.count(2, 3) == gbc_count(graph, BicliqueQuery(2, 3),
                                            backend="fast").count
    assert seen == ["native"]


def test_workers_1_falls_back_in_process(caplog):
    graphs = make_graphs()
    with caplog.at_level(logging.WARNING, logger="repro.dist.router"):
        with DistRouter(graphs, workers=1, backend="fast") as router:
            assert not router.distributed
            assert router.routing_table() == {}
            assert router.worker_pids() == []
            expected = oracle(graphs)
            for (name, p, q), want in sorted(expected.items()):
                assert router.count(name, p, q).count == want
    assert any("falling back to in-process serving" in r.message
               for r in caplog.records)


def test_no_fork_falls_back_in_process(caplog, monkeypatch):
    import repro.dist.router as router_mod
    monkeypatch.setattr(router_mod, "fork_available", lambda: False)
    graphs = {"only": random_bipartite(30, 25, 140, seed=9)}
    with caplog.at_level(logging.WARNING, logger="repro.dist.router"):
        with DistRouter(graphs, workers=4, backend="fast") as router:
            assert not router.distributed
            want = gbc_count(graphs["only"], BicliqueQuery(2, 2),
                             backend="fast").count
            assert router.count("only", 2, 2).count == want
    assert any("fork unavailable" in r.message for r in caplog.records)


@needs_fork
def test_mutate_rejected_in_dist_mode():
    graphs = {"g": random_bipartite(30, 25, 140, seed=9)}
    with DistRouter(graphs, workers=2, backend="fast") as router:
        with pytest.raises(ServiceError, match="single-process only"):
            router.mutate("g", [("add", 0, 0)])


@needs_fork
def test_unknown_graph_fails_the_request():
    graphs = {"g": random_bipartite(30, 25, 140, seed=9)}
    with DistRouter(graphs, workers=2, backend="fast") as router:
        with pytest.raises(ServiceError, match="not registered"):
            router.count("nope", 2, 2)
        # the router survives and keeps serving
        assert router.count("g", 2, 2).count >= 0


@needs_fork
def test_partitioned_graphs_serve_exact_only():
    graphs = {"big": power_law_bipartite(60, 50, 280, seed=5)}
    with DistRouter(graphs, workers=2, partitioned=("big",),
                    backend="fast") as router:
        with pytest.raises(ServiceError, match="exact tier only"):
            router.count("big", 2, 2, accuracy="approx")
        assert router.count("big", 2, 2, accuracy="exact").count > 0


@needs_fork
def test_deadline_and_backpressure_cross_process():
    graphs = {"g": power_law_bipartite(60, 50, 280, seed=5)}
    router = DistRouter(graphs, workers=2, backend="fast",
                        max_pending=2)
    try:
        # busy router threads keep the requests queued at the router
        with occupy_workers(router, "g"):
            late = router.submit("g", 2, 2, deadline=1e-3)
            futures = []
            with pytest.raises(QueueFullError):
                for _ in range(50):
                    futures.append(router.submit("g", 2, 2))
            time.sleep(0.02)            # the deadline lapses in the queue
        with pytest.raises(DeadlineExceededError):
            late.result(timeout=30)
        for fut in futures:
            assert fut.result(timeout=30).count > 0
    finally:
        router.close()


@needs_fork
def test_cluster_snapshot_merges_workers_and_ledger():
    graphs = make_graphs()
    with DistRouter(graphs, workers=2, partitioned=("big",),
                    backend="fast") as router:
        for name in graphs:
            router.count(name, 2, 2)
        snap = router.cluster_snapshot()
    assert snap["mode"] == "dist"
    assert snap["router"]["completed"] == 3
    assert set(snap["workers"]) <= {"0", "1"}
    cluster = snap["cluster"]
    assert cluster["workers"] == len(snap["workers"])
    # every routed (non-partitioned) execution ran inside some worker
    assert cluster["completed"] >= 2
    assert router.ledger.snapshot()["cells"]


@needs_fork
def test_close_is_idempotent_and_stops_workers():
    import os

    graphs = {"g": random_bipartite(30, 25, 140, seed=9)}
    router = DistRouter(graphs, workers=2, backend="fast")
    pids = router.worker_pids()
    assert router.count("g", 2, 2).count >= 0
    router.close()
    router.close()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

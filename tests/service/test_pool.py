"""SessionPool: LRU eviction, budgets, loaders, concurrency."""

import gc
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro.core.counts import BicliqueQuery
from repro.dynamic import DynamicGraphSession, EdgeMutation
from repro.errors import ServiceError
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.query import GraphSession
from repro.service.pool import SessionPool, graph_resident_bytes


def make_pool(n_graphs=3, **kwargs):
    pool = SessionPool(**kwargs)
    graphs = {}
    for i in range(n_graphs):
        name = f"g{i}"
        graphs[name] = random_bipartite(20 + i, 15, 60, seed=i)
        pool.register(name, graphs[name])
    return pool, graphs


class TestRegistration:
    def test_register_graph_and_loader(self):
        pool = SessionPool()
        g = random_bipartite(10, 10, 30, seed=1)
        pool.register("obj", g)
        pool.register("lazy", lambda: random_bipartite(10, 10, 30, seed=2))
        assert pool.names() == ["lazy", "obj"]
        assert pool.live_names() == []          # nothing built yet
        assert pool.session("obj").graph is g
        assert isinstance(pool.session("lazy"), GraphSession)
        assert pool.stats.loads == 1            # only the loader ran

    def test_unknown_name_raises(self):
        pool, _ = make_pool(1)
        with pytest.raises(ServiceError, match="unknown graph"):
            pool.session("nope")

    def test_loader_returning_junk_raises(self):
        pool = SessionPool()
        pool.register("bad", lambda: object())
        with pytest.raises(ServiceError, match="expected BipartiteGraph"):
            pool.session("bad")

    def test_reregister_drops_live_session(self):
        pool, _ = make_pool(1)
        first = pool.session("g0")
        pool.register("g0", random_bipartite(9, 9, 20, seed=5))
        assert pool.live_names() == []
        assert pool.session("g0") is not first

    def test_invalid_budgets_raise(self):
        with pytest.raises(ServiceError):
            SessionPool(max_sessions=0)
        with pytest.raises(ServiceError):
            SessionPool(max_bytes=0)


class TestLRU:
    def test_entry_budget_evicts_least_recent(self):
        pool, _ = make_pool(3, max_sessions=2)
        pool.session("g0")
        pool.session("g1")
        pool.session("g0")              # refresh g0's recency
        pool.session("g2")              # over budget -> g1 goes
        assert pool.live_names() == ["g0", "g2"]
        assert pool.stats.evictions == 1
        assert pool.stats.evicted_by_name == {"g1": 1}

    def test_cached_session_is_reused(self):
        pool, _ = make_pool(1)
        assert pool.session("g0") is pool.session("g0")
        assert pool.stats.builds == 1
        assert pool.stats.hits == 1

    def test_rebuild_after_eviction(self):
        pool, _ = make_pool(2, max_sessions=1)
        first = pool.session("g0")
        pool.session("g1")              # evicts g0
        rebuilt = pool.session("g0")    # transparently rebuilt
        assert rebuilt is not first
        assert rebuilt.graph is first.graph     # same registered object
        assert pool.stats.builds == 3

    def test_memory_budget_evicts(self):
        g = random_bipartite(30, 30, 120, seed=0)
        one = graph_resident_bytes(g)
        pool = SessionPool(max_sessions=10, max_bytes=int(one * 1.5))
        pool.register("a", g)
        pool.register("b", random_bipartite(30, 30, 120, seed=1))
        pool.session("a")
        pool.session("b")               # 2x one > budget -> evict "a"
        assert pool.live_names() == ["b"]
        assert pool.resident_bytes() <= int(one * 1.5)

    def test_single_oversized_graph_still_serves(self):
        g = random_bipartite(30, 30, 120, seed=0)
        pool = SessionPool(max_bytes=1)          # absurdly small
        pool.register("huge", g)
        assert pool.session("huge").graph is g  # never evicts the keep

    def test_evicted_session_object_stays_usable(self):
        from repro.core.counts import BicliqueQuery

        pool, _ = make_pool(2, max_sessions=1)
        held = pool.session("g0")
        pool.session("g1")              # evicts g0 from the pool
        # a request mid-flight still holds the object; counting works
        assert held.count(BicliqueQuery(2, 2), backend="fast").count >= 0


@contextmanager
def cyclic_gc_off():
    """Only reference counting frees objects inside the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def serve_auto_and_deadline(session) -> None:
    """An ``auto`` count, and an explicit count whose deadline makes
    the session price it (the path that builds a planner)."""
    session.count(BicliqueQuery(2, 2), "auto")
    session.count(BicliqueQuery(2, 3), "GBC", backend="native",
                  deadline=600.0)


class TestEvictionFreesSessions:
    """An evicted session's prepared state goes when the pool drops it,
    not at the next run of the cyclic garbage collector."""

    def test_evicted_session_is_freed_by_reference_counting(self):
        pool = SessionPool(max_sessions=1)
        pool.register("a", power_law_bipartite(60, 40, 300, seed=1))
        pool.register("b", power_law_bipartite(60, 40, 300, seed=2))
        with cyclic_gc_off():
            session = pool.session("a")
            serve_auto_and_deadline(session)
            ref = weakref.ref(session)
            del session
            pool.session("b")               # evicts "a"
            assert pool.live_names() == ["b"]
            assert ref() is None

    def test_replaced_snapshot_session_is_freed(self):
        graph = power_law_bipartite(60, 40, 300, seed=3)
        pool = SessionPool(max_sessions=1)
        pool.register("d", DynamicGraphSession.from_graph(
            graph, backend="native"))
        with cyclic_gc_off():
            inner = pool.session("d").session
            serve_auto_and_deadline(inner)
            ref = weakref.ref(inner)
            del inner
            u, v = 0, int(graph.neighbors("U", 0)[0])
            pool.mutate("d", [EdgeMutation.delete(u, v)])
            fresh = pool.session("d")
            assert fresh.epoch == 1
            fresh.count(BicliqueQuery(2, 2), "GBC", backend="native")
            assert ref() is None


class TestLifecycleAndConcurrency:
    def test_close_refuses_new_sessions(self):
        pool, _ = make_pool(1)
        pool.session("g0")
        pool.close()
        assert pool.live_names() == []
        with pytest.raises(ServiceError, match="closed"):
            pool.session("g0")

    def test_snapshot_is_json_shaped(self):
        import json

        pool, _ = make_pool(2, max_sessions=1)
        pool.session("g0")
        pool.session("g1")
        snap = json.loads(json.dumps(pool.snapshot()))
        assert snap["registered"] == 2
        assert snap["live"] == ["g1"]
        assert snap["evictions"] == 1

    def test_concurrent_session_calls_build_once(self):
        pool, _ = make_pool(1)
        barrier = threading.Barrier(8)
        got = []

        def hit():
            barrier.wait()
            for _ in range(50):
                got.append(pool.session("g0"))

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, got))) == 1
        assert pool.stats.builds == 1

"""The LRU result cache: accounting, eviction, and invalidation."""

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.errors import QueryError
from repro.graph.builders import from_edges
from repro.graph.generators import random_bipartite
from repro.query import GraphSession, ResultCache, graph_fingerprint


class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache(maxsize=4)
        assert cache.get(("a",)) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(("a",), "value")
        assert cache.get(("a",)) == "value"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = ResultCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))          # refresh "a": "b" is now the LRU entry
        cache.put(("c",), 3)
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache
        assert len(cache) == 2

    def test_bad_maxsize_raises(self):
        with pytest.raises(QueryError):
            ResultCache(maxsize=0)


class TestSessionResultCaching:
    def test_repeated_query_is_a_hit_with_same_result_object(self):
        g = random_bipartite(30, 20, 120, seed=3)
        session = GraphSession(g)
        query = BicliqueQuery(2, 2)
        first = session.count(query, backend="fast")
        second = session.count(query, backend="fast")
        assert second is first
        assert (session.results.hits, session.results.misses) == (1, 1)

    def test_key_distinguishes_backend_method_and_query(self):
        g = random_bipartite(30, 20, 120, seed=3)
        session = GraphSession(g)
        query = BicliqueQuery(2, 2)
        runs = [
            session.count(query, backend="fast"),
            session.count(query, backend="sim"),
            session.count(query, "BCL", backend="fast"),
            session.count(BicliqueQuery(2, 3), backend="fast"),
        ]
        assert session.results.hits == 0
        assert session.results.misses == len(runs)
        assert len({r.count for r in runs[:3]}) == 1  # same (2,2) count

    def test_key_distinguishes_worker_counts(self):
        # sharded timings are worker-dependent even though counts are
        # not, so each worker count gets its own entry
        g = random_bipartite(30, 20, 120, seed=3)
        session = GraphSession(g)
        query = BicliqueQuery(2, 2)
        two = session.count(query, workers=2)
        three = session.count(query, workers=3)
        assert session.results.hits == 0 and session.results.misses == 2
        assert two.count == three.count
        assert session.count(query, workers=2) is two  # now a hit

    def test_eviction_bounds_session_memory(self):
        g = random_bipartite(30, 20, 120, seed=3)
        session = GraphSession(g, max_cached_results=2)
        for p, q in ((1, 1), (1, 2), (2, 1)):
            session.count(BicliqueQuery(p, q), backend="fast")
        assert len(session.results) == 2
        session.count(BicliqueQuery(1, 1), backend="fast")  # evicted: miss
        assert session.results.hits == 0
        assert session.results.misses == 4


class TestInvalidation:
    def test_fingerprint_is_content_based(self):
        edges = [(0, 0), (0, 1), (1, 0), (2, 1)]
        g1 = from_edges(3, 2, edges, name="one")
        g2 = from_edges(3, 2, edges, name="two")
        g3 = from_edges(3, 2, edges + [(2, 0)], name="three")
        assert graph_fingerprint(g1) == graph_fingerprint(g2)
        assert graph_fingerprint(g1) != graph_fingerprint(g3)

    def test_refresh_keeps_caches_when_graph_unchanged(self):
        g = random_bipartite(20, 15, 60, seed=0)
        session = GraphSession(g)
        session.count(BicliqueQuery(2, 2), backend="fast")
        assert session.refresh() is False
        assert len(session.results) == 1
        assert session.count(BicliqueQuery(2, 2), backend="fast")
        assert session.results.hits == 1

    def test_refresh_invalidates_after_in_place_mutation(self):
        # same shape, different edges, so the CSR arrays can be swapped
        # in place — modelling an upstream mutation of the "immutable"
        # graph that a long-lived serving session must not silently
        # answer stale counts for
        g = random_bipartite(30, 20, 120, seed=0)
        donor = random_bipartite(30, 20, 120, seed=1)
        session = GraphSession(g)
        stale = session.count(BicliqueQuery(2, 2), backend="fast").count
        old_fp = session.fingerprint

        for name in ("u_offsets", "u_neighbors", "v_offsets", "v_neighbors"):
            getattr(g, name)[:] = getattr(donor, name)

        assert session.refresh() is True
        assert session.fingerprint != old_fp
        assert len(session.results) == 0
        fresh = session.count(BicliqueQuery(2, 2), backend="fast").count
        expected = gbc_count(donor, BicliqueQuery(2, 2), backend="fast").count
        assert fresh == expected
        assert fresh != stale  # the two seeds really differ

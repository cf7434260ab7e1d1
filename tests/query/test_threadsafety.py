"""Concurrent hammer tests for the query layer's shared state.

The serving scheduler hits one ``GraphSession`` (and its ``ResultCache``)
from many worker threads at once.  Before the session/cache carried
locks, this load produced duplicated "build-once" structures (visible as
``stats.wedge_builds > 1``) and corrupted ``OrderedDict`` recency state
during concurrent eviction — the exact races these tests pin down.
"""

import threading


from repro.core.counts import BicliqueQuery, CountResult
from repro.graph.generators import power_law_bipartite
from repro.query import GraphSession, ResultCache

THREADS = 8


def hammer(fn, threads=THREADS, iterations=1):
    """Start ``threads`` workers on ``fn`` behind a barrier; re-raise the
    first worker exception (a silent crash must fail the test)."""
    barrier = threading.Barrier(threads)
    errors = []

    def run(i):
        barrier.wait()
        try:
            for _ in range(iterations):
                fn(i)
        except Exception as exc:   # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]


class TestSessionHammer:
    def test_lazy_builders_build_exactly_once_under_contention(self):
        graph = power_law_bipartite(200, 150, 700, seed=13)
        session = GraphSession(graph)

        def build(_i):
            session.wedges("U")
            session.priority_order("U", 3)
            session.two_hop_index("U", 3)
            session.htb_pair("U", 3)

        hammer(build)
        assert session.stats.wedge_builds == 1
        assert session.stats.order_builds == 1
        assert session.stats.index_builds == 1
        assert session.stats.htb_adj_builds == 1
        assert session.stats.htb_two_hop_builds == 1

    def test_concurrent_counts_are_correct_and_stats_exact(self):
        graph = power_law_bipartite(120, 90, 420, seed=14)
        expected = GraphSession(graph).count(
            BicliqueQuery(2, 2), backend="fast").count
        session = GraphSession(graph)

        counts = []
        lock = threading.Lock()

        def count(_i):
            got = session.count(BicliqueQuery(2, 2), backend="fast").count
            with lock:
                counts.append(got)

        hammer(count, iterations=5)
        assert counts == [expected] * (THREADS * 5)
        # one wedge pass total, however many threads raced to build it
        assert session.stats.wedge_builds == 1


class TestResultCacheHammer:
    @staticmethod
    def result(i: int) -> CountResult:
        return CountResult(algorithm="GBC", query=BicliqueQuery(2, 2),
                           count=i, wall_seconds=0.0, backend="native",
                           backend_instrumented=False)

    def test_contended_eviction_stays_consistent(self):
        cache = ResultCache(maxsize=16)

        def churn(i):
            for j in range(300):
                key = ("fp", "GBC", i, j % 24)
                cache.put(key, self.result(j))
                cache.get(key)
                cache.get(("fp", "GBC", (i + 1) % THREADS, j % 24))

        hammer(churn)
        assert len(cache) <= 16
        assert cache.hits + cache.misses == THREADS * 300 * 2

    def test_hit_returns_the_stored_object(self):
        cache = ResultCache(maxsize=8)
        stored = self.result(7)
        cache.put(("k",), stored)

        def read(_i):
            for _ in range(200):
                got = cache.get(("k",))
                assert got is stored

        hammer(read)


class TestRefreshUnderLoad:
    def test_refresh_races_with_builders_without_corruption(self):
        graph = power_law_bipartite(100, 80, 350, seed=15)
        session = GraphSession(graph)
        stop = threading.Event()

        def refresher():
            while not stop.is_set():
                session.refresh()

        t = threading.Thread(target=refresher)
        t.start()
        try:
            hammer(lambda _i: session.two_hop_index("U", 2), iterations=20)
        finally:
            stop.set()
            t.join()
        # graph content never changed, so refresh() must not have
        # invalidated anything: still exactly one build of each
        assert session.stats.wedge_builds == 1
        assert session.stats.index_builds == 1

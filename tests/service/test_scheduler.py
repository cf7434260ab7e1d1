"""Scheduler: batching, correctness, and every failure path.

The failure-path coverage is the point here: deadline expiry, queue-full
backpressure, closed-scheduler admission, non-draining shutdown, and a
session evicted mid-flight (which must transparently rebuild, never
crash a request).  Dispatch is work-conserving, so tests that need
requests to stay queued first occupy every worker
(:func:`tests.occupy.occupy_workers`).
"""

import asyncio
import threading
import time

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.errors import (DeadlineExceededError, QueueFullError,
                          ServiceClosedError, ServiceError)
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler, SchedulerConfig
from tests.occupy import occupy_workers

GRAPHS = {
    "a": random_bipartite(30, 20, 120, seed=2),
    "b": power_law_bipartite(40, 30, 160, seed=3),
}


def make_pool(**kwargs) -> SessionPool:
    pool = SessionPool(**kwargs)
    for name, graph in GRAPHS.items():
        pool.register(name, graph)
    return pool


class TestConfig:
    @pytest.mark.parametrize("bad", [
        {"max_batch": 0}, {"max_pending": 0}, {"workers": 0},
    ])
    def test_invalid_tunables_raise(self, bad):
        with pytest.raises(ServiceError):
            SchedulerConfig(**bad)

    @pytest.mark.parametrize("name", ["batch_window", "backend_workers"])
    def test_batch_window_is_an_unknown_tunable(self, name):
        with pytest.raises(TypeError, match=name):
            SchedulerConfig(**{name: 2})

    def test_default_backend_is_native(self):
        assert SchedulerConfig().backend == "native"

    @pytest.mark.parametrize("backend", ["par", "natve"])
    def test_retired_or_misspelt_backend_refused_at_config(self, backend):
        """An engine outside BACKEND_NAMES — the retired "par", or a
        typo — fails once, at construction and before any worker
        process forks, naming the valid engines."""
        import multiprocessing as mp

        from repro.dist import DistRouter

        before = mp.active_children()
        with pytest.raises(ServiceError, match="'sim', 'fast', 'native'"):
            SchedulerConfig(backend=backend)
        with pytest.raises(ServiceError, match="unknown backend"):
            Scheduler(make_pool(), backend=backend)
        with pytest.raises(ServiceError, match="unknown backend"):
            DistRouter(dict(GRAPHS), workers=2, backend=backend)
        assert mp.active_children() == before

    @pytest.mark.parametrize("backend", ["fast", "sim"])
    def test_auto_off_native_rejected_at_config(self, backend):
        """auto is GBC on native: refused once, at construction, rather
        than on every request."""
        with pytest.raises(ServiceError, match="native"):
            SchedulerConfig(method="auto", backend=backend)
        with pytest.raises(ServiceError, match="native"):
            Scheduler(make_pool(), method="auto", backend=backend)
        assert SchedulerConfig(method="GBC", backend=backend).backend \
            == backend

    def test_config_and_overrides_conflict(self):
        pool = make_pool()
        with pytest.raises(ServiceError, match="not both"):
            Scheduler(pool, config=SchedulerConfig(), workers=3)

    def test_bad_deadline_rejected_at_submit(self):
        with Scheduler(make_pool()) as sched:
            with pytest.raises(ServiceError, match="deadline"):
                sched.submit("a", 2, 2, deadline=0.0)


class TestServing:
    def test_single_request_matches_direct_call(self):
        with Scheduler(make_pool()) as sched:
            result = sched.count("a", 2, 2)
        direct = gbc_count(GRAPHS["a"], BicliqueQuery(2, 2), backend="fast")
        assert result.count == direct.count

    def test_coalesced_batch_is_bit_identical_per_request(self):
        with Scheduler(make_pool(), workers=1) as sched:
            with occupy_workers(sched, "a") as parked:
                futures = [(name, p, q, sched.submit(name, p, q))
                           for name in ("a", "b")
                           for p, q in ((2, 2), (2, 3), (3, 3))
                           for _ in range(3)]
            served = [(n, p, q, f.result(timeout=60).count)
                      for n, p, q, f in futures]
        for name, p, q, count in served:
            direct = gbc_count(GRAPHS[name], BicliqueQuery(p, q),
                               backend="fast").count
            assert count == direct, (name, p, q)
        snap = sched.telemetry.snapshot()
        assert snap["completed"] == len(served) + len(parked)
        assert snap["batches"]["mean_size"] > 1.0   # coalescing happened

    @pytest.mark.parametrize("backend", ["sim", "fast", "native"])
    def test_backends_all_serve_identical_counts(self, backend):
        with Scheduler(make_pool(), backend=backend) as sched:
            count = sched.count("b", 2, 2, timeout=120).count
        assert count == gbc_count(GRAPHS["b"], BicliqueQuery(2, 2),
                                  backend="fast").count

    def test_per_request_method_override(self):
        with Scheduler(make_pool()) as sched:
            result = sched.count("a", 2, 2, method="BCL")
        assert result.algorithm == "BCL"

    def test_unknown_method_fails_fast_at_submit(self):
        """A bad method name must be an admission failure — raised by
        submit itself, never parked on a future where it would poison a
        worker batch."""
        from repro.errors import UnknownMethodError

        with Scheduler(make_pool()) as sched:
            with pytest.raises(UnknownMethodError, match="NOPE"):
                sched.submit("a", 2, 2, method="NOPE")
            assert sched.pending() == 0
            # the scheduler is unharmed: valid work still completes
            assert sched.count("a", 2, 2).count == gbc_count(
                GRAPHS["a"], BicliqueQuery(2, 2), backend="fast").count

    def test_unknown_default_method_rejected_at_config(self):
        from repro.errors import UnknownMethodError
        from repro.service.scheduler import SchedulerConfig

        with pytest.raises(UnknownMethodError):
            SchedulerConfig(method="NOPE")

    def test_auto_method_serves_bit_identical(self):
        with Scheduler(make_pool(), method="auto") as sched:
            result = sched.count("a", 2, 2)
            override = sched.count("a", 2, 2, method="auto")
        direct = gbc_count(GRAPHS["a"], BicliqueQuery(2, 2),
                           backend="fast")
        assert result.count == direct.count
        assert override.count == direct.count

    def test_asyncio_front_end(self):
        async def drive(sched):
            return await asyncio.gather(
                sched.submit_async("a", 2, 2),
                sched.submit_async("a", 2, 3),
                sched.submit_async("b", 2, 2))

        with Scheduler(make_pool()) as sched:
            results = asyncio.run(drive(sched))
        assert [r.count for r in results] == [
            gbc_count(GRAPHS[n], BicliqueQuery(p, q), backend="fast").count
            for n, p, q in (("a", 2, 2), ("a", 2, 3), ("b", 2, 2))]

    def test_invalid_query_rejected_synchronously(self):
        from repro.errors import QueryError

        with Scheduler(make_pool()) as sched:
            with pytest.raises(QueryError):
                sched.submit("a", 0, 2)


class TestFailurePaths:
    def test_deadline_exceeded_before_execution(self):
        with Scheduler(make_pool()) as sched:
            with occupy_workers(sched, "b"):
                future = sched.submit("a", 2, 2, deadline=0.01)
                time.sleep(0.05)        # the deadline lapses in the queue
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
        assert sched.telemetry.snapshot()["expired"] == 1

    def test_generous_deadline_is_met(self):
        with Scheduler(make_pool()) as sched:
            assert sched.count("a", 2, 2, deadline=60).count >= 0
        assert sched.telemetry.snapshot()["expired"] == 0

    def test_queue_full_backpressure(self):
        # busy workers keep requests queued; the 3rd must bounce
        with Scheduler(make_pool(), max_pending=2) as sched:
            with occupy_workers(sched, "b"):
                sched.submit("a", 2, 2)
                sched.submit("a", 2, 3)
                with pytest.raises(QueueFullError, match="2 requests"):
                    sched.submit("a", 3, 3)
                snap = sched.telemetry.snapshot()
                assert snap["rejected"] == 1
                assert snap["queue_depth"]["max"] == 2

    def test_close_without_drain_fails_pending(self):
        with Scheduler(make_pool()) as sched:
            with occupy_workers(sched, "b"):
                futures = [sched.submit("a", 2, q) for q in (2, 3, 4)]
                # timeout=0: the parked workers finish after the block
                sched.close(drain=False, timeout=0)
                for future in futures:
                    with pytest.raises(ServiceClosedError):
                        future.result(timeout=30)
        assert sched.pending() == 0
        snap = sched.telemetry.snapshot()
        assert snap["failed"] == len(futures)
        assert snap["submitted"] == \
            snap["completed"] + snap["failed"] + snap["expired"]

    def test_close_with_drain_completes_pending(self):
        sched = Scheduler(make_pool())
        with occupy_workers(sched, "b"):
            future = sched.submit("a", 2, 2)
            sched.close(timeout=0)      # stops admission, keeps the queue
        sched.close()                   # drain=True executes the bucket
        assert future.result(timeout=30).count == gbc_count(
            GRAPHS["a"], BicliqueQuery(2, 2), backend="fast").count

    def test_submit_after_close_raises(self):
        sched = Scheduler(make_pool())
        sched.close()
        with pytest.raises(ServiceClosedError):
            sched.submit("a", 2, 2)
        assert sched.telemetry.snapshot()["rejected"] == 1

    def test_unknown_graph_fails_only_its_requests(self):
        with Scheduler(make_pool()) as sched:
            bad = sched.submit("nope", 2, 2)
            good = sched.submit("a", 2, 2)
            assert good.result(timeout=30).count >= 0
            with pytest.raises(ServiceError, match="unknown graph"):
                bad.result(timeout=30)
        assert sched.telemetry.snapshot()["failed"] == 1

    def test_mid_flight_eviction_transparently_rebuilds(self):
        # a pool with room for one session, served two graphs: every
        # alternation evicts the other's session mid-workload, and each
        # request must rebuild and answer correctly rather than crash
        pool = make_pool(max_sessions=1)
        expected = {
            (name, p, q): gbc_count(GRAPHS[name], BicliqueQuery(p, q),
                                    backend="fast").count
            for name in GRAPHS for p, q in ((2, 2), (2, 3))}
        with Scheduler(pool, workers=2) as sched:
            # synchronous alternation makes every request its own batch,
            # so each one evicts the other graph's session
            for _ in range(3):
                for name in ("a", "b"):
                    for p, q in ((2, 2), (2, 3)):
                        assert sched.count(name, p, q, timeout=60).count \
                            == expected[name, p, q], (name, p, q)
        assert pool.stats.evictions >= 5    # the thrash really happened
        assert pool.stats.builds >= 6       # ... and rebuilds served it

    def test_concurrent_submitters_all_complete(self):
        errors = []
        with Scheduler(make_pool(), workers=2) as sched:
            def client(i):
                try:
                    name = "a" if i % 2 else "b"
                    assert sched.count(name, 2, 2, timeout=60).count >= 0
                except Exception as exc:   # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert sched.telemetry.snapshot()["completed"] == 16


class TestBatchFormation:
    def test_oversize_bucket_splits_at_max_batch(self):
        with Scheduler(make_pool(), max_batch=4, workers=1) as sched:
            with occupy_workers(sched, "b"):
                futures = [sched.submit("a", 2, 2) for _ in range(10)]
            for f in futures:
                f.result(timeout=60)
        sizes = sched.telemetry.snapshot()["batches"]["histogram"]
        assert max(int(s) for s in sizes) <= 4

    def test_queued_requests_leave_in_max_batch_chunks_oldest_first(self):
        from repro.obs import tracing

        with tracing() as rec:
            with Scheduler(make_pool(), max_batch=2, workers=1) as sched:
                with occupy_workers(sched, "b"):
                    futures = [sched.submit(name, 2, 2)
                               for name in ("a", "b", "a", "a")]
                for f in futures:
                    f.result(timeout=60)
        batches = [(r["attrs"]["graph"], r["attrs"]["rids"])
                   for r in rec.records if r["name"] == "serve.batch"]
        # rid 1 is the parked request; a's remainder (rid 5) stays
        # behind b's older request instead of jumping the queue
        assert batches == [("b", [1]), ("a", [2, 4]), ("b", [3]),
                           ("a", [5])]

    def test_idle_scheduler_serves_without_waiting(self):
        # the parent's 2 ms batch window put a floor of n x 2 ms under
        # n serial requests; an idle worker now takes each one at once
        n = 50
        with Scheduler(make_pool()) as sched:
            expected = sched.count("a", 2, 2).count    # fill the cache
            t0 = time.perf_counter()
            for _ in range(n):
                assert sched.count("a", 2, 2).count == expected
            elapsed = time.perf_counter() - t0
        assert elapsed < n * 0.002, f"{elapsed * 1e3:.1f} ms for {n}"

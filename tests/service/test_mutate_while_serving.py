"""Mutate-while-serving under real thread contention.

The serving guarantee of the dynamic layer: readers *never* observe a
mid-edit state.  Every result a reader gets back carries the epoch its
batch pinned (``result.extras["epoch"]``), and its count must be
bit-identical to the exact count of the graph at that epoch — verified
here against a per-epoch expected table the writer records as it edits.

The stress shape is the acceptance scenario: at least eight reader
threads hammering the scheduler (and raw ``batch_count`` snapshots)
while a single writer applies a toggle stream, plus mid-flight eviction
of both the dynamic entry and a pooled static session under mutation.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.dynamic import DynamicGraphSession, EdgeMutation
from repro.errors import ServiceError
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.query import batch_count
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler

SHAPES = ((2, 2), (2, 3), (3, 3))
NUM_READERS = 8
NUM_EDITS = 60


def make_dynamic(seed: int = 7) -> DynamicGraphSession:
    graph = random_bipartite(24, 20, 90, seed=seed)
    return DynamicGraphSession.from_graph(graph, name="dyn", track=SHAPES)


def record_expected(dyn: DynamicGraphSession, table: dict) -> None:
    """Pin the exact tracked counts at the session's current epoch.

    Only the (single) writer thread calls this, immediately after each
    edit, so the epoch cannot advance between the reads.
    """
    table[dyn.epoch] = {s: dyn.count(*s) for s in SHAPES}


def run_stress(sched: Scheduler, dyn: DynamicGraphSession, *,
               readers: int = NUM_READERS, edits: int = NUM_EDITS,
               reader_graphs: tuple[str, ...] = ("dyn",),
               chaos=None, writer_pace: float = 0.003):
    """Drive one writer + ``readers`` reader threads to completion.

    Returns ``(expected, observations, static_observations, errors)``:
    the writer's epoch -> shape -> count table, every dynamic-graph
    result as ``(epoch, shape, count)``, every static-graph result as
    ``(name, shape, count)``, and any exception a thread hit.  An
    optional ``chaos()`` callback runs in its own thread until the
    writer finishes (eviction hammering lives there).
    """
    expected: dict[int, dict] = {}
    record_expected(dyn, expected)
    observations: list[tuple[int, tuple, int]] = []
    static_observations: list[tuple[str, tuple, int]] = []
    lock = threading.Lock()
    errors: list[Exception] = []
    start = threading.Event()
    done = threading.Event()

    def writer():
        # paced: an unthrottled writer outruns the readers' batch
        # windows and every read would pin the final epoch — the pace
        # spreads the edits across the readers' lifetime so results
        # genuinely arrive from many different versions
        rng = np.random.default_rng(11)
        try:
            start.wait()
            for _ in range(edits):
                u = int(rng.integers(dyn.num_u))
                v = int(rng.integers(dyn.num_v))
                sched.mutate("dyn", [EdgeMutation.toggle(u, v)])
                record_expected(dyn, expected)
                time.sleep(writer_pace)
        except Exception as exc:        # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()

    def reader(i):
        # offset each reader's shape rotation so batches mix shapes
        shapes = SHAPES[i % len(SHAPES):] + SHAPES[:i % len(SHAPES)]
        graphs = reader_graphs[i % len(reader_graphs):] \
            + reader_graphs[:i % len(reader_graphs)]
        try:
            start.wait()
            while True:
                finished = done.is_set()
                for name in graphs:
                    for p, q in shapes:
                        result = sched.count(name, p, q, timeout=60)
                        with lock:
                            if name == "dyn":
                                observations.append(
                                    (int(result.extras["epoch"]),
                                     (p, q), result.count))
                            else:
                                static_observations.append(
                                    (name, (p, q), result.count))
                if finished:            # one full sweep after the writer
                    return
        except Exception as exc:        # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(i,))
                for i in range(readers)]
    if chaos is not None:
        def chaos_loop():
            try:
                start.wait()
                while not done.is_set():
                    chaos()
            except Exception as exc:    # pragma: no cover - failure path
                errors.append(exc)
        threads.append(threading.Thread(target=chaos_loop))
    for t in threads:
        t.start()
    start.set()
    for t in threads:
        t.join()
    return expected, observations, static_observations, errors


def assert_epoch_consistent(expected, observations):
    """Every observed (epoch, shape, count) matches the writer's table."""
    for epoch, shape, count in observations:
        assert epoch in expected, (
            f"reader pinned epoch {epoch} the writer never produced")
        assert count == expected[epoch][shape], (
            f"mid-edit state observed: shape {shape} at epoch {epoch} "
            f"served {count}, exact is {expected[epoch][shape]}")


class TestReadersNeverSeeMidEditState:
    def test_eight_readers_one_writer(self):
        dyn = make_dynamic()
        pool = SessionPool()
        pool.register("dyn", dyn)
        with Scheduler(pool, workers=2) as sched:
            expected, observations, _, errors = run_stress(sched, dyn)
        assert not errors
        assert len(expected) == NUM_EDITS + 1   # every epoch recorded
        assert_epoch_consistent(expected, observations)
        # the race was real: many reads, spread over many versions
        assert len(observations) >= NUM_READERS * len(SHAPES)
        assert len({epoch for epoch, _, _ in observations}) > 1
        assert pool.stats.mutations == NUM_EDITS

    def test_eviction_and_rebuild_under_mutation(self):
        """Hammering evict() mid-stream — dropping the dynamic entry's
        cached snapshot state and thrashing a static co-tenant out of a
        one-slot pool — must never surface a wrong or torn count."""
        dyn = make_dynamic(seed=9)
        static_graph = power_law_bipartite(30, 25, 110, seed=4)
        pool = SessionPool(max_sessions=1)
        pool.register("dyn", dyn)
        pool.register("static", static_graph)
        static_expected = {
            (p, q): gbc_count(static_graph, BicliqueQuery(p, q),
                              backend="fast").count
            for p, q in SHAPES}

        def chaos():
            pool.evict("dyn")
            pool.evict("static")

        with Scheduler(pool, workers=2) as sched:
            expected, observations, static_obs, errors = run_stress(
                sched, dyn, edits=40,
                reader_graphs=("dyn", "static"), chaos=chaos)
        assert not errors
        assert_epoch_consistent(expected, observations)
        for name, shape, count in static_obs:
            assert count == static_expected[shape], (name, shape)
        assert observations and static_obs
        assert pool.stats.evictions > 0     # the chaos really landed


class TestSnapshotIsolation:
    def test_pinned_snapshot_survives_writer_progress(self):
        """A snapshot pinned before a burst of edits keeps answering
        from its own epoch — batch_count over it is bit-identical to
        the pre-edit graph, not the live one."""
        dyn = make_dynamic(seed=13)
        before = {s: dyn.count(*s) for s in SHAPES}
        snap = dyn.pinned()
        pinned_epoch = snap.epoch

        rng = np.random.default_rng(5)
        for _ in range(25):
            dyn.toggle(int(rng.integers(dyn.num_u)),
                       int(rng.integers(dyn.num_v)))
        assert dyn.epoch == pinned_epoch + 25

        batch = batch_count(snap, [f"{p}x{q}" for p, q in SHAPES])
        served = {(r.query.p, r.query.q): r.count for r in batch.results}
        assert served == before
        assert snap.epoch == pinned_epoch
        # and the live session has genuinely moved on
        assert {s: dyn.count(*s) for s in SHAPES} != before or \
            dyn.num_edges == snap.num_edges

    def test_concurrent_batch_count_on_rotating_snapshots(self):
        """Raw batch_count (no scheduler) from many threads, each
        pinning its own snapshot while the writer edits: every batch is
        internally consistent with its snapshot's epoch."""
        dyn = make_dynamic(seed=21)
        expected: dict[int, dict] = {}
        record_expected(dyn, expected)
        errors: list[Exception] = []
        checked = []
        done = threading.Event()
        lock = threading.Lock()

        def writer():
            rng = np.random.default_rng(3)
            try:
                for _ in range(NUM_EDITS):
                    dyn.toggle(int(rng.integers(dyn.num_u)),
                               int(rng.integers(dyn.num_v)))
                    record_expected(dyn, expected)
            except Exception as exc:    # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while True:
                    finished = done.is_set()
                    snap = dyn.pinned()
                    batch = batch_count(
                        snap, [f"{p}x{q}" for p, q in SHAPES])
                    with lock:
                        for r in batch.results:
                            checked.append((snap.epoch,
                                            (r.query.p, r.query.q),
                                            r.count))
                    if finished:
                        return
            except Exception as exc:    # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader)
                    for _ in range(NUM_READERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert_epoch_consistent(expected, checked)
        assert len(checked) >= NUM_READERS * len(SHAPES)


class TestWritePathValidation:
    def test_mutating_a_static_entry_raises(self):
        pool = SessionPool()
        pool.register("static", random_bipartite(10, 10, 30, seed=1))
        with Scheduler(pool) as sched:
            with pytest.raises(ServiceError, match="not dynamic"):
                sched.mutate("static", [EdgeMutation.toggle(0, 0)])

    def test_mutation_telemetry_flows_through(self):
        dyn = make_dynamic(seed=2)
        pool = SessionPool()
        pool.register("dyn", dyn)
        with Scheduler(pool) as sched:
            epoch = sched.mutate("dyn", [EdgeMutation.toggle(0, 0),
                                         EdgeMutation.toggle(0, 0)])
            assert epoch == 2
            assert sched.count("dyn", 2, 2).extras["epoch"] == 2.0
        assert sched.telemetry.snapshot()["mutations"] == 2
        assert pool.snapshot()["dynamic_epochs"] == {"dyn": 2}

"""``native`` forked over root shards: planning, execution, determinism.

The hard guarantee under test: ``NativeBackend(workers=N)`` merges
per-shard results so that counts are bit-identical to one ``native``
process (and to ``fast``) for *any* worker count — and metric
aggregation is stable (all-zero, like the serial engine).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.balance.preruntime import weighted_greedy_split
from repro.core.basic import basic_count
from repro.core.bcl import bcl_count, bcl_per_root_profile
from repro.core.bclp import bclp_count
from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.core.gbl import gbl_count
from repro.engine import (
    FastBackend,
    KernelBackend,
    NativeBackend,
    get_backend,
    resolve_backend,
)
from repro.errors import QueryError
from repro.gpu.metrics import KernelMetrics
from repro.parallel import plan_shards, run_sharded
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.plan import Planner, explicit_plan
from repro.query import GraphSession

ALGORITHMS = [basic_count, bcl_count, bclp_count, gbl_count, gbc_count]


class TestRegistry:
    def test_workers_configure_native(self):
        engine = get_backend("native", workers=3)
        assert isinstance(engine, NativeBackend)
        assert isinstance(engine, KernelBackend)
        assert engine.name == "native"
        assert engine.workers == 3
        assert not engine.instrumented
        assert NativeBackend().workers is None

    def test_serial_engines_run_one_shard(self):
        """Every engine has ``map_shards``; a serial one runs all items
        as one in-process shard, so the counters need no serial/sharded
        fork (and no ``parallel`` flag to pick one)."""
        for engine in (get_backend("sim"), FastBackend(), NativeBackend()):
            shards = engine.map_shards(lambda idxs: [2 * i for i in idxs],
                                       4, weights=np.ones(4))
            assert [(list(idxs), got) for idxs, got in shards] == \
                [([0, 1, 2, 3], [0, 2, 4, 6])]
            assert engine.map_shards(list, 0) == []
        assert not hasattr(KernelBackend, "parallel")
        assert not hasattr(NativeBackend(2), "parallel")

    def test_resolve_workers_selects_parallel(self):
        for backend in (None, "native", NativeBackend()):
            engine = resolve_backend(backend, workers=2)
            assert isinstance(engine, NativeBackend)
            assert engine.workers == 2

    def test_resolve_workers_rejects_sim(self):
        with pytest.raises(QueryError):
            resolve_backend("sim", workers=2)

    def test_workers_reject_fast_like_sim(self):
        """Only native forks: the name "fast" and a FastBackend instance
        (which NativeBackend subclasses) raise in every layer, as "sim"
        does, instead of quietly swapping engines."""
        graph = random_bipartite(20, 20, 90, seed=5)
        query = BicliqueQuery(2, 2)
        for backend in ("fast", FastBackend()):
            with pytest.raises(QueryError):
                resolve_backend(backend, workers=2)
            with pytest.raises(QueryError):
                explicit_plan(graph, query, "GBC", backend=backend,
                              workers=2)
            with pytest.raises(QueryError):
                Planner(graph).plan(query, backend=backend, workers=2)
            with pytest.raises(QueryError):
                GraphSession(graph).count(query, "GBC", backend=backend,
                                          workers=2)

    def test_resolve_keeps_configured_instance(self):
        engine = NativeBackend(2)
        assert resolve_backend(engine, workers=2) is engine
        assert resolve_backend(engine, workers=4).workers == 4

    def test_without_workers_nothing_changes(self, monkeypatch):
        """workers=None is one process: native never reaches the fork
        path, and every default stays as it was."""
        from repro.engine import native

        assert resolve_backend(None).name == "sim"
        assert resolve_backend("fast").name == "fast"
        assert resolve_backend("native").workers is None

        def refuse(*args, **kwargs):
            raise AssertionError("workers=None must not shard")

        monkeypatch.setattr(native, "run_sharded", refuse)
        graph = power_law_bipartite(40, 30, 200, seed=9)
        for fn in ALGORITHMS:
            assert fn(graph, BicliqueQuery(2, 2), backend="native").count \
                == fn(graph, BicliqueQuery(2, 2), backend="fast").count

    def test_invalid_configuration_rejected(self):
        with pytest.raises(QueryError):
            NativeBackend(0)


class TestShardPlanning:
    # both policies are static (at most one shard per worker, fixed
    # before the fork): contiguous ranges without weights, LPT with them
    @pytest.mark.parametrize("weighted", [
        pytest.param(False, id="static-contiguous"),
        pytest.param(True, id="static-weighted")])
    def test_shards_partition_the_items(self, weighted):
        rng = np.random.default_rng(0)
        for n, workers in [(1, 1), (5, 2), (37, 4), (100, 8)]:
            weights = rng.random(n)
            if weighted:
                plan = plan_shards(n, workers, weights)
                assert plan.covered() == list(range(n))
                # one LPT shard per worker (empty ones dropped)
                assert plan.shards == tuple(
                    tuple(g) for g in weighted_greedy_split(weights, workers)
                    if g)
            else:
                plan = plan_shards(n, workers)
                assert [i for s in plan.shards for i in s] \
                    == list(range(n))
            assert plan.num_shards <= workers

    def test_static_respects_worker_cap(self):
        plan = plan_shards(50, 4)
        assert plan.num_shards <= 4

    def test_empty_plan(self):
        assert plan_shards(0, 4).num_shards == 0
        assert run_sharded(sum, 0, workers=4) == []

    def test_plan_is_deterministic(self):
        w = np.random.default_rng(7).random(61)
        a = plan_shards(61, 4, weights=w)
        b = plan_shards(61, 4, weights=w)
        assert a == b


class TestRunSharded:
    def test_results_keyed_by_indices(self):
        got = run_sharded(lambda idxs: [i * i for i in idxs], 10, workers=3)
        squares = {}
        for idxs, res in got:
            squares.update(zip(idxs, res))
        assert squares == {i: i * i for i in range(10)}

    # contiguous shards without weights, LPT shards with them
    @pytest.mark.parametrize("weights", [
        pytest.param(None, id="static"),
        pytest.param(np.ones(100), id="weighted")])
    def test_closures_cross_the_fork(self, weights):
        payload = np.arange(100, dtype=np.int64)  # inherited, not pickled
        got = run_sharded(lambda idxs: int(payload[list(idxs)].sum()), 100,
                          workers=4, weights=weights)
        assert sum(res for _, res in got) == int(payload.sum())

    def test_fn_exception_propagates_verbatim(self):
        def boom(idxs):
            raise ValueError(f"bad shard {tuple(idxs)}")

        with pytest.raises(ValueError, match="bad shard"):
            run_sharded(boom, 4, workers=2)
        assert sum(res for _, res in run_sharded(len, 4, workers=2)) == 4

    def test_worker_count_never_changes_the_merge(self):
        expect = sum(i * 3 for i in range(57))
        for workers in (1, 2, 3, 8):
            got = run_sharded(lambda idxs: sum(i * 3 for i in idxs), 57,
                              workers=workers)
            assert sum(res for _, res in got) == expect


class TestAlgorithmEquivalence:
    """Sharded native == one native process == fast == sim counts, for
    every algorithm and worker count."""

    @pytest.mark.parametrize("fn", ALGORITHMS,
                             ids=lambda f: f.__name__)
    def test_counts_match_fast(self, fn):
        graph = power_law_bipartite(50, 40, 260, seed=13)
        query = BicliqueQuery(3, 2)
        expect = fn(graph, query, backend="fast").count
        assert fn(graph, query).count == expect
        assert fn(graph, query, backend="native").count == expect
        for workers in (1, 2, 3):
            assert fn(graph, query, workers=workers).count == expect

    @pytest.mark.parametrize("variant", ["GBC-NB", "GBC-NH", "GBC-NW"])
    def test_frontier_variants_match_one_process(self, variant):
        """Both frontier kernels (HTB and, for NB, CSR) shard."""
        from repro.bench.runner import run_method

        graph = power_law_bipartite(60, 45, 300, seed=21)
        query = BicliqueQuery(3, 3)
        serial = run_method(variant, graph, query, backend="native")
        for workers in (1, 2, 3):
            got = run_method(variant, graph, query, backend="native",
                             workers=workers)
            assert got.count == serial.count
            assert got.peak_working_set_bytes \
                <= serial.peak_working_set_bytes

    def test_result_records_native_backend(self):
        graph = random_bipartite(20, 20, 90, seed=5)
        res = gbc_count(graph, BicliqueQuery(2, 2), workers=2)
        assert res.backend == "native"
        assert not res.backend_instrumented


class TestShardTallies:
    def test_forked_shards_bring_kernel_tallies_home(self):
        """Under tracing, a sharded count's ``kernel.batch`` span tallies
        the items and bytes a one-process count tallies (calls may
        differ: each shard slices its own levels)."""
        from repro.bench.runner import run_method
        from repro.obs.trace import tracing

        graph = power_law_bipartite(300, 250, 3000, seed=5)
        tallies = {}
        for workers in (None, 2):
            with tracing() as rec:
                run_method("GBC", graph, BicliqueQuery(3, 3),
                           backend="native", workers=workers)
            (batch,) = [r["attrs"] for r in rec.records
                        if r["name"] == "kernel.batch"]
            tallies[workers] = batch
        for key in ("kernel_items", "kernel_bytes"):
            assert tallies[2].get(key) == tallies[None][key] > 0, key


class TestDeterminism:
    """Same inputs, different worker counts -> byte-identical outputs."""

    def test_counts_and_metrics_stable_across_workers(self):
        graph = power_law_bipartite(60, 45, 300, seed=21)
        query = BicliqueQuery(3, 3)
        serial = gbc_count(graph, query, backend="native")
        runs = [gbc_count(graph, query, workers=w) for w in (1, 2, 3)] \
            + [gbc_count(graph, query, workers=2)]  # repeat: run-to-run too
        counts = {r.count for r in runs} | {serial.count} \
            | {gbc_count(graph, query, backend="fast").count}
        assert len(counts) == 1
        # stable metric aggregation: identical to one native process
        # (all-zero counters, and the same zero-cost schedule) for any
        # worker count
        for r in runs:
            assert r.metrics == KernelMetrics()
            assert r.makespan_cycles == serial.makespan_cycles
            assert r.per_root_cycles == serial.per_root_cycles

    def test_per_root_data_keeps_priority_order(self):
        graph = power_law_bipartite(40, 30, 200, seed=9)
        query = BicliqueQuery(3, 2)
        serial = bcl_per_root_profile(graph, query, backend="fast")
        for workers in (2, 4):
            sharded = bcl_per_root_profile(graph, query, workers=workers)
            assert sharded.root_ids == serial.root_ids
            assert sharded.per_root_counts == serial.per_root_counts

    def test_bclp_schedule_inputs_survive_sharding(self):
        graph = random_bipartite(30, 25, 150, seed=2)
        query = BicliqueQuery(2, 2)
        serial = bclp_count(graph, query, threads=4, backend="fast")
        sharded = bclp_count(graph, query, threads=4, workers=2)
        assert sharded.count == serial.count
        assert sharded.breakdown["threads"] == 4.0


class TestPrimitiveDelegation:
    """As a plain KernelBackend, sharded native behaves exactly like
    fast."""

    def test_primitives_match_fast(self):
        rng = np.random.default_rng(31)
        fast, sharded = FastBackend(), NativeBackend(2)
        for _ in range(10):
            a = np.unique(rng.integers(0, 80, size=30).astype(np.int64))
            b = np.unique(rng.integers(0, 80, size=50).astype(np.int64))
            m = KernelMetrics()
            np.testing.assert_array_equal(sharded.merge(a, b),
                                          fast.merge(a, b))
            np.testing.assert_array_equal(sharded.intersect(a, b, m),
                                          fast.intersect(a, b, m))
            np.testing.assert_array_equal(sharded.membership(a, b),
                                          fast.membership(a, b))
            assert m == KernelMetrics()


class TestBenchAndRunnerThreading:
    def test_run_method_threads_workers(self):
        from repro.bench.runner import run_method

        graph = random_bipartite(25, 20, 120, seed=8)
        query = BicliqueQuery(2, 2)
        expect = run_method("GBC", graph, query, backend="fast").count
        for method in ("Basic", "BCL", "BCLP", "GBL", "GBC"):
            res = run_method(method, graph, query, workers=2)
            assert res.count == expect
            assert res.backend == "native"

    def test_run_matrix_accepts_workers(self):
        from repro.bench.runner import run_matrix

        graphs = {"g": random_bipartite(20, 18, 90, seed=4)}
        runs = run_matrix(graphs, [BicliqueQuery(2, 2)], ["Basic", "BCL"],
                          workers=2)
        assert len(runs) == 2
        assert len({r.count for r in runs}) == 1

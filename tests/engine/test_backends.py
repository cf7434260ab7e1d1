"""Backend equivalence: the fast engine must be indistinguishable from
the simulated one in every *result* while charging no metrics at all."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.basic import basic_count
from repro.core.bcl import bcl_count
from repro.core.bclp import bclp_count
from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count, gbc_variant
from repro.core.gbl import gbl_count
from repro.engine import (
    BACKEND_NAMES,
    FastBackend,
    KernelBackend,
    SimulatedDeviceBackend,
    resolve_backend,
)
from repro.errors import QueryError
from repro.gpu.device import small_test_device
from repro.gpu.metrics import KernelMetrics
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.htb.htb import BitmapSet

ALGORITHMS = [basic_count, bcl_count, bclp_count, gbl_count, gbc_count]


def _sorted_unique(rng, n, hi):
    return np.unique(rng.integers(0, hi, size=n).astype(np.int64))


class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("sim", "fast", "native")

    def test_resolve_by_name(self):
        from repro.engine import NativeBackend

        assert isinstance(resolve_backend("sim"), SimulatedDeviceBackend)
        assert isinstance(resolve_backend("fast"), FastBackend)
        assert isinstance(resolve_backend("native"), NativeBackend)
        assert resolve_backend("native", workers=2).workers == 2
        with pytest.raises(QueryError):
            resolve_backend("cuda")

    def test_resolve_defaults_to_native(self):
        from repro.engine import DEFAULT_BACKEND, NativeBackend

        engine = resolve_backend(None)
        assert DEFAULT_BACKEND == "native"
        assert isinstance(engine, NativeBackend)
        assert engine.workers is None and not engine.instrumented
        assert resolve_backend().name == DEFAULT_BACKEND

    def test_resolve_passes_instances_through(self):
        engine = FastBackend()
        assert resolve_backend(engine) is engine
        with pytest.raises(QueryError):
            resolve_backend(42)

    def test_resolve_binds_spec(self):
        spec = small_test_device()
        engine = resolve_backend("sim", spec)
        assert engine.spec is spec

    def test_protocol(self):
        for name in BACKEND_NAMES:
            assert isinstance(resolve_backend(name), KernelBackend)


class TestPrimitiveEquivalence:
    """Property-style: random sorted sets, every primitive, both engines."""

    @pytest.mark.parametrize("seed", range(8))
    def test_intersect_and_merge(self, seed):
        rng = np.random.default_rng(seed)
        sim = SimulatedDeviceBackend(small_test_device())
        fast = FastBackend()
        for _ in range(16):
            a = _sorted_unique(rng, int(rng.integers(0, 40)), 120)
            b = _sorted_unique(rng, int(rng.integers(0, 80)), 120)
            expect = np.intersect1d(a, b)
            m = KernelMetrics()
            np.testing.assert_array_equal(sim.intersect(a, b, m), expect)
            np.testing.assert_array_equal(fast.intersect(a, b, m), expect)
            np.testing.assert_array_equal(sim.merge(a, b), expect)
            np.testing.assert_array_equal(fast.merge(a, b), expect)

    @pytest.mark.parametrize("seed", range(8))
    def test_membership(self, seed):
        rng = np.random.default_rng(100 + seed)
        sim = SimulatedDeviceBackend(small_test_device())
        fast = FastBackend()
        a = _sorted_unique(rng, 25, 90)
        b = _sorted_unique(rng, 45, 90)
        np.testing.assert_array_equal(sim.membership(a, b),
                                      fast.membership(a, b))

    @pytest.mark.parametrize("seed", range(8))
    def test_bitmap_intersect(self, seed):
        rng = np.random.default_rng(200 + seed)
        sim = SimulatedDeviceBackend(small_test_device())
        fast = FastBackend()
        for _ in range(16):
            a = BitmapSet.from_vertices(
                _sorted_unique(rng, int(rng.integers(0, 50)), 300))
            b = BitmapSet.from_vertices(
                _sorted_unique(rng, int(rng.integers(0, 50)), 300))
            m = KernelMetrics()
            got_sim = sim.bitmap_intersect(a, b, m)
            got_fast = fast.bitmap_intersect(a, b, m)
            np.testing.assert_array_equal(got_sim.vertices(),
                                          got_fast.vertices())
            assert got_sim.count() == got_fast.count()

    def test_fast_merge_ignores_comparison_cell(self):
        fast = FastBackend()
        cell = [0]
        fast.merge(np.arange(5, dtype=np.int64),
                   np.arange(3, 9, dtype=np.int64), cell)
        assert cell[0] == 0

    def test_sim_merge_counts_comparisons(self):
        sim = SimulatedDeviceBackend(small_test_device())
        cell = [0]
        sim.merge(np.arange(5, dtype=np.int64),
                  np.arange(3, 9, dtype=np.int64), cell)
        assert cell[0] == 11


class TestAlgorithmEquivalence:
    """Identical biclique counts across all five algorithms on random
    bipartite graphs, fast vs simulated."""

    @pytest.mark.parametrize("seed", [3, 11, 27])
    @pytest.mark.parametrize("pq", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_counts_match(self, seed, pq):
        graph = random_bipartite(35, 30, 260, seed=seed)
        query = BicliqueQuery(*pq)
        counts = set()
        for fn in ALGORITHMS:
            counts.add(fn(graph, query).count)
            counts.add(fn(graph, query, backend="fast").count)
        assert len(counts) == 1, f"backends disagree: {counts}"

    def test_counts_match_power_law(self):
        graph = power_law_bipartite(60, 50, 400, seed=5)
        query = BicliqueQuery(3, 3)
        sim = gbc_count(graph, query)
        fast = gbc_count(graph, query, backend="fast")
        assert sim.count == fast.count

    @pytest.mark.parametrize("variant", ["NH", "NB", "NW"])
    def test_gbc_variants_match(self, variant):
        graph = random_bipartite(30, 25, 180, seed=9)
        query = BicliqueQuery(2, 3)
        sim = gbc_count(graph, query, options=gbc_variant(variant))
        fast = gbc_count(graph, query, options=gbc_variant(variant),
                         backend="fast")
        assert sim.count == fast.count


class TestInstrumentationContract:
    """Fast runs charge nothing; sim runs keep their historical metrics."""

    def test_fast_gbc_has_zero_metrics(self):
        graph = random_bipartite(30, 25, 180, seed=1)
        res = gbc_count(graph, BicliqueQuery(2, 2), backend="fast")
        assert res.backend == "fast"
        m = res.metrics
        assert m.global_transactions == 0
        assert m.comparisons == 0
        assert m.shared_accesses == 0
        assert m.intersection_calls == 0
        assert m.thread_slots_total == 0

    def test_sim_gbc_still_charges(self):
        graph = random_bipartite(30, 25, 180, seed=1)
        res = gbc_count(graph, BicliqueQuery(2, 2), backend="sim")
        assert res.backend == "sim"
        assert res.metrics.global_transactions > 0
        assert res.metrics.intersection_calls > 0

    def test_bcl_instrument_opt_out(self):
        graph = random_bipartite(30, 25, 180, seed=2)
        query = BicliqueQuery(2, 2)
        on = bcl_count(graph, query, backend="sim")
        off = bcl_count(graph, query, backend="sim", instrument=False)
        fast = bcl_count(graph, query, backend="fast")
        assert on.count == off.count == fast.count
        assert "comp_s_seconds" in on.breakdown
        assert off.breakdown == {} and off.extras == {}
        assert fast.breakdown == {} and fast.extras == {}

    def test_backend_recorded_on_results(self):
        graph = random_bipartite(20, 20, 100, seed=4)
        query = BicliqueQuery(2, 2)
        for fn in ALGORITHMS:
            sim = fn(graph, query, backend="sim")
            fast = fn(graph, query, backend="fast")
            assert sim.backend == "sim" and sim.backend_instrumented
            assert fast.backend == "fast" and not fast.backend_instrumented

    def test_headline_seconds_falls_back_to_wall_when_uninstrumented(self):
        from repro.bench.runner import headline_seconds

        graph = random_bipartite(20, 20, 100, seed=4)
        query = BicliqueQuery(2, 2)
        sim = gbc_count(graph, query, backend="sim")
        fast = gbc_count(graph, query, backend="fast")
        assert headline_seconds(sim) == sim.device_seconds
        assert headline_seconds(fast) == fast.wall_seconds

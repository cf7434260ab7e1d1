"""Tests for the out-of-memory partitioned counting runner."""

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.verify import brute_force_count
from repro.engine import NativeBackend
from repro.gpu.device import rtx_3090
from repro.graph.generators import power_law_bipartite
from repro.partition.runner import run_bcpar, run_metis_like


@pytest.fixture(scope="module")
def graph():
    return power_law_bipartite(70, 55, 350, seed=6, name="part-test")


@pytest.fixture(scope="module")
def query():
    return BicliqueQuery(3, 2)


@pytest.fixture(scope="module")
def truth(graph, query):
    return brute_force_count(graph, query)


class TestBCParRun:
    def test_exact_count(self, graph, query, truth):
        report, _ = run_bcpar(graph, query, budget_words=1200)
        assert report.total_count == truth

    def test_no_on_demand_traffic(self, graph, query):
        """Communication-free: BCPar never fetches on demand."""
        report, _ = run_bcpar(graph, query, budget_words=1200)
        assert report.on_demand_transfer_words == 0

    def test_counts_split_sums(self, graph, query, truth):
        report, _ = run_bcpar(graph, query, budget_words=1200)
        assert report.intra_count + report.inter_count == truth

    def test_initial_transfer_positive(self, graph, query):
        report, _ = run_bcpar(graph, query, budget_words=1200)
        assert report.initial_transfer_words > 0


class TestMetisLikeRun:
    def test_exact_count(self, graph, query, truth):
        report, _ = run_metis_like(graph, query, num_parts=4)
        assert report.total_count == truth

    def test_on_demand_traffic_exists(self, graph, query):
        """Cut edges force PCIe fetches — the Fig. 10 bottleneck."""
        report, _ = run_metis_like(graph, query, num_parts=4)
        assert report.on_demand_transfer_words > 0

    def test_single_part_no_traffic(self, graph, query):
        report, _ = run_metis_like(graph, query, num_parts=1)
        assert report.on_demand_transfer_words == 0
        assert report.inter_count == 0


class TestCrossBackendMetamorphic:
    """Partitioned totals are invariant under the execution engine:
    identical across sim/fast/native, across worker counts, and for both
    partitioners — only the accounting may differ."""

    BACKENDS = ("sim", "fast", "native", NativeBackend(workers=2))

    @staticmethod
    def _signature(report):
        return (report.total_count, report.intra_count, report.inter_count,
                report.initial_transfer_words,
                report.on_demand_transfer_words, report.num_partitions)

    def test_bcpar_backends_agree(self, graph, query, truth):
        signatures = set()
        for backend in self.BACKENDS:
            report, _ = run_bcpar(graph, query, budget_words=1200,
                                  backend=backend)
            signatures.add(self._signature(report))
            assert report.total_count == truth
        assert len(signatures) == 1

    def test_metis_backends_agree(self, graph, query, truth):
        signatures = set()
        for backend in self.BACKENDS:
            report, _ = run_metis_like(graph, query, num_parts=4,
                                       backend=backend)
            signatures.add(self._signature(report))
            assert report.total_count == truth
        assert len(signatures) == 1

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_invariance(self, graph, query, truth, workers):
        bc, _ = run_bcpar(graph, query, budget_words=1200,
                          backend="native", workers=workers)
        me, _ = run_metis_like(graph, query, num_parts=4,
                               workers=workers)
        assert bc.total_count == me.total_count == truth

    def test_sharded_comparisons_uninstrumented(self, graph, query):
        """Like fast, native forked over workers charges no
        comparisons."""
        report, _ = run_bcpar(graph, query, budget_words=1200,
                              backend="native", workers=2)
        assert report.comparisons == 0


class TestThroughputComparison:
    def test_bcpar_beats_metis(self, graph, query):
        """Fig. 10(a): BCPar throughput exceeds the METIS-like baseline."""
        spec = rtx_3090()
        bc, pset = run_bcpar(graph, query, budget_words=1200)
        me, _ = run_metis_like(graph, query,
                               num_parts=max(pset.num_partitions, 2))
        assert bc.throughput(spec) > me.throughput(spec)

    def test_metis_inter_slower_than_intra(self, graph, query):
        """Fig. 10(b): inter-partition throughput is the METIS bottleneck."""
        spec = rtx_3090()
        me, _ = run_metis_like(graph, query, num_parts=4)
        intra, inter = me.split_throughputs(spec)
        if me.inter_count > 0:
            assert inter < intra

    def test_seconds_decompose(self, graph, query):
        spec = rtx_3090()
        report, _ = run_bcpar(graph, query, budget_words=1200)
        assert report.total_seconds(spec) == pytest.approx(
            report.compute_seconds(spec) + report.transfer_seconds(spec))

"""Tests for the GPU baseline (GBL)."""


from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count, gbc_variant
from repro.core.gbl import gbl_count
from repro.gpu.device import small_test_device


class TestGBL:
    def test_paper_example(self, paper_graph):
        assert gbl_count(paper_graph, BicliqueQuery(3, 2)).count == 2

    def test_metrics_populated(self, medium_power_law):
        res = gbl_count(medium_power_law, BicliqueQuery(3, 2), backend="sim")
        assert res.metrics.global_transactions > 0
        assert res.metrics.comparisons > 0
        assert res.device_seconds > 0

    def test_no_stealing(self, medium_power_law):
        res = gbl_count(medium_power_law, BicliqueQuery(3, 2), backend="sim")
        assert res.steals == 0

    def test_deterministic(self, medium_power_law):
        q = BicliqueQuery(2, 3)
        a = gbl_count(medium_power_law, q, backend="sim")
        b = gbl_count(medium_power_law, q, backend="sim")
        assert a.makespan_cycles == b.makespan_cycles

    def test_custom_device(self, medium_power_law):
        res = gbl_count(medium_power_law, BicliqueQuery(2, 2),
                        spec=small_test_device(), num_blocks=2,
                        backend="sim")
        assert res.count > 0

    def test_imbalance_reported(self, medium_power_law):
        res = gbl_count(medium_power_law, BicliqueQuery(3, 2), backend="sim")
        assert res.breakdown["imbalance"] >= 1.0

    def test_native_reports_the_frontier_peak(self, medium_power_law):
        """On ``native`` GBL runs the CSR frontier GBC-NB runs, over the
        same arrays, so it reports the same nonzero working-set peak."""
        query = BicliqueQuery(3, 2)
        gbl = gbl_count(medium_power_law, query, backend="native")
        nb = gbc_count(medium_power_law, query, options=gbc_variant("NB"),
                       backend="native")
        assert gbl.count == nb.count > 0
        assert gbl.peak_working_set_bytes > 0
        assert gbl.peak_working_set_bytes == nb.peak_working_set_bytes

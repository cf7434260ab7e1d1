"""Tests for GBC: options, variants, and the paper's qualitative claims."""

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import GBCOptions, gbc_count, gbc_variant
from repro.core.gbl import gbl_count
from repro.errors import QueryError
from repro.gpu.device import rtx_3090, small_test_device
from repro.graph.generators import power_law_bipartite


@pytest.fixture(scope="module")
def workload():
    return power_law_bipartite(150, 100, 700, seed=12, name="gbc-load")


@pytest.fixture(scope="module")
def query():
    return BicliqueQuery(3, 3)


class TestOptions:
    def test_defaults(self):
        opts = GBCOptions()
        assert opts.hybrid and opts.use_htb and opts.balance == "joint"
        assert opts.variant_name == "GBC"

    def test_variant_names(self):
        assert gbc_variant("NH").variant_name == "GBC-NH"
        assert gbc_variant("NB").variant_name == "GBC-NB"
        assert gbc_variant("NW").variant_name == "GBC-NW"

    def test_unknown_variant(self):
        with pytest.raises(QueryError):
            gbc_variant("XX")

    def test_bad_balance(self):
        with pytest.raises(QueryError):
            GBCOptions(balance="magic")


class TestDeviceResult:
    def test_fields_populated(self, workload, query):
        res = gbc_count(workload, query, backend="sim")
        assert res.count > 0
        assert res.device_seconds > 0
        assert res.makespan_cycles > 0
        assert res.metrics.intersection_calls > 0
        assert res.peak_working_set_bytes > 0
        assert "htb_transform_seconds" in res.breakdown

    def test_deterministic(self, workload, query):
        a = gbc_count(workload, query, backend="sim")
        b = gbc_count(workload, query, backend="sim")
        assert a.count == b.count
        assert a.makespan_cycles == b.makespan_cycles
        assert a.metrics.global_transactions == b.metrics.global_transactions


class TestPaperClaims:
    def test_gbc_beats_gbl_in_device_time(self, workload, query):
        """Fig. 7: GBC outperforms the naive GPU baseline."""
        gbc = gbc_count(workload, query, backend="sim")
        gbl = gbl_count(workload, query, backend="sim")
        assert gbc.device_seconds < gbl.device_seconds

    def test_htb_reduces_transactions(self, workload, query):
        """§V-A: HTB slashes global-memory transactions vs CSR search."""
        full = gbc_count(workload, query, backend="sim")
        nb = gbc_count(workload, query, options=gbc_variant("NB"),
                       backend="sim")
        assert full.metrics.global_transactions < nb.metrics.global_transactions

    def test_hybrid_raises_utilization(self, workload, query):
        """§IV: hybrid DFS-BFS keeps more lanes busy than pure DFS."""
        full = gbc_count(workload, query, backend="sim")
        nh = gbc_count(workload, query, options=gbc_variant("NH"),
                       backend="sim")
        assert full.metrics.utilization > nh.metrics.utilization

    def test_hybrid_uses_more_memory(self, workload, query):
        """Fig. 11: the BFS staging costs extra working-set memory."""
        full = gbc_count(workload, query, backend="sim")
        nh = gbc_count(workload, query, options=gbc_variant("NH"),
                       backend="sim")
        assert full.peak_working_set_bytes >= nh.peak_working_set_bytes

    def test_balancing_reduces_makespan(self, workload, query):
        """§V-C: joint balancing beats the naive split."""
        full = gbc_count(workload, query, backend="sim")
        nw = gbc_count(workload, query, options=gbc_variant("NW"),
                       backend="sim")
        assert full.makespan_cycles <= nw.makespan_cycles

    def test_all_variants_slower_or_equal(self, workload, query):
        """Fig. 9: every ablation costs device time."""
        full = gbc_count(workload, query, backend="sim")
        for name in ("NH", "NB", "NW"):
            crippled = gbc_count(workload, query,
                                 options=gbc_variant(name), backend="sim")
            assert crippled.device_seconds >= full.device_seconds * 0.99, name


class TestSharedMemoryBatching:
    def test_small_shared_memory_limits_batches(self, workload, query):
        """A device with tiny shared memory must still count correctly."""
        tiny = small_test_device(shared_mem=256)
        res = gbc_count(workload, query, spec=tiny, backend="sim")
        assert res.count == gbc_count(workload, query, backend="sim").count

    def test_shared_peak_bounded_by_buffer(self, workload, query):
        spec = rtx_3090()
        res = gbc_count(workload, query, spec=spec, backend="sim")
        assert res.metrics.shared_bytes_peak <= spec.shared_mem_per_block * 2

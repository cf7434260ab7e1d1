"""End-to-end integration tests across subsystems.

Each test chains several packages the way a real deployment would:
generator -> (core prune) -> reorder -> HTB -> device count -> verify,
or generator -> partition -> per-partition count -> aggregate.
"""

from math import comb


from repro import (
    BicliqueQuery,
    GBCOptions,
    bcl_count,
    gbc_count,
    planted_bicliques,
    power_law_bipartite,
)
from repro.core.pipeline import run_pipeline
from repro.core.verify import brute_force_count
from repro.graph.cores import prune_for_query
from repro.graph.io import loads, dumps
from repro.partition.runner import recommended_budget_words, run_bcpar


class TestFullPipelineClosedForm:
    def test_planted_counts_survive_every_stage(self):
        """Plants with known closed-form counts flow through pruning,
        Border reordering, HTB and the simulated device unchanged."""
        g = planted_bicliques(24, 24, [(5, 4), (4, 5)], noise_edges=60,
                              seed=9)
        q = BicliqueQuery(3, 3)
        expected = brute_force_count(g, q)
        # plants alone contribute a known floor
        floor = comb(5, 3) * comb(4, 3) + comb(4, 3) * comb(5, 3)
        assert expected >= floor

        pruned = prune_for_query(g, q.p, q.q).subgraph
        pipe = run_pipeline(pruned, q, reorder="border")
        assert pipe.result.count == expected

    def test_io_roundtrip_then_count(self, tmp_path):
        g = power_law_bipartite(60, 50, 280, seed=10)
        q = BicliqueQuery(2, 3)
        text = dumps(g, konect=True)
        back = loads(text)
        assert gbc_count(back, q).count == bcl_count(g, q).count


class TestPartitionedEndToEnd:
    def test_bcpar_total_equals_monolithic(self):
        g = power_law_bipartite(90, 70, 420, seed=11)
        q = BicliqueQuery(3, 2)
        budget = recommended_budget_words(g, q.q, fraction=0.3)
        report, pset = run_bcpar(g, q, budget_words=budget)
        assert report.total_count == gbc_count(g, q).count
        assert report.num_partitions == pset.num_partitions


class TestDeviceConfigurations:
    def test_scaled_device_same_counts(self):
        from repro.bench.experiments import scaled_device
        g = power_law_bipartite(70, 50, 300, seed=12)
        q = BicliqueQuery(3, 3)
        # makespans are simulated: only the sim engine schedules blocks
        full = gbc_count(g, q, backend="sim")
        scaled = gbc_count(g, q, spec=scaled_device(), backend="sim")
        assert full.count == scaled.count
        # fewer blocks -> each block does more work -> larger makespan
        assert full.makespan_cycles > 0
        assert scaled.makespan_cycles >= full.makespan_cycles

    def test_all_option_combinations_agree(self):
        g = power_law_bipartite(50, 40, 220, seed=13)
        q = BicliqueQuery(2, 3)
        expected = brute_force_count(g, q)
        for hybrid in (True, False):
            for use_htb in (True, False):
                for balance in ("none", "pre", "runtime", "joint"):
                    opts = GBCOptions(hybrid=hybrid, use_htb=use_htb,
                                      balance=balance)
                    assert gbc_count(g, q, options=opts).count == expected, \
                        (hybrid, use_htb, balance)

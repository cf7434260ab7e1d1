"""Tests for BCL and its Fig. 1(b) instrumentation."""

import pytest

from repro.core.bcl import bcl_count, bcl_per_root_profile
from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs


class TestBCLResult:
    def test_count_on_paper_graph(self, paper_graph):
        assert bcl_count(paper_graph, BicliqueQuery(3, 2)).count == 2

    def test_breakdown_keys(self, medium_power_law):
        res = bcl_count(medium_power_law, BicliqueQuery(3, 3), backend="sim")
        for key in ("comp_s_seconds", "comp_h_seconds", "other_seconds",
                    "intersection_fraction"):
            assert key in res.breakdown

    def test_breakdown_sums_to_total(self, medium_power_law):
        res = bcl_count(medium_power_law, BicliqueQuery(3, 3), backend="sim")
        total = (res.breakdown["comp_s_seconds"]
                 + res.breakdown["comp_h_seconds"]
                 + res.breakdown["other_seconds"])
        assert total == pytest.approx(res.wall_seconds, rel=0.05)

    def test_intersections_dominate(self, medium_power_law):
        """The Fig. 1(b) claim: intersections are the bulk of BCL time."""
        res = bcl_count(medium_power_law, BicliqueQuery(3, 3), backend="sim")
        assert res.breakdown["intersection_fraction"] > 0.5

    def test_comparison_counts_positive(self, medium_power_law):
        res = bcl_count(medium_power_law, BicliqueQuery(3, 3), backend="sim")
        assert res.extras["comparisons_two_hop"] > 0
        assert res.extras["comparisons_one_hop"] > 0


class TestPerRootProfile:
    def test_counts_sum_to_total(self, medium_power_law):
        q = BicliqueQuery(3, 2)
        profile = bcl_per_root_profile(medium_power_law, q)
        assert sum(profile.per_root_counts) == \
            bcl_count(medium_power_law, q).count

    def test_per_root_lists_aligned(self, medium_power_law):
        profile = bcl_per_root_profile(medium_power_law, BicliqueQuery(2, 2))
        assert len(profile.per_root_seconds) == len(profile.per_root_counts)
        assert len(profile.root_ids) == len(profile.per_root_counts)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 3)])
    def test_profiles_exactly_the_prepared_roots(self, medium_power_law,
                                                 shape):
        """BCL enumerates the shared prepare step's promising roots, in
        priority order: roots of degree below q are not profiled."""
        query = BicliqueQuery(*shape)
        profile = bcl_per_root_profile(medium_power_law, query)
        roots = prepare_device_inputs(medium_power_law, query).roots
        assert profile.root_ids == roots.tolist()

    def test_fraction_bounds(self, medium_power_law):
        profile = bcl_per_root_profile(medium_power_law, BicliqueQuery(2, 2))
        assert 0.0 <= profile.fraction_intersections() <= 1.0

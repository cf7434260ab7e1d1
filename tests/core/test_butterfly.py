"""Tests for the wedge-based butterfly counter."""

from math import comb

import pytest

from repro.core.butterfly import butterfly_count
from repro.core.counts import BicliqueQuery, CountResult
from repro.core.verify import brute_force_count
from repro.graph.builders import complete_bipartite, empty_graph
from repro.graph.generators import star_bipartite


class TestButterfly:
    def test_complete(self):
        g = complete_bipartite(4, 4)
        assert butterfly_count(g).count == comb(4, 2) * comb(4, 2)

    def test_star_has_none(self):
        assert butterfly_count(star_bipartite(10)).count == 0

    def test_empty(self):
        assert butterfly_count(empty_graph(4, 4)).count == 0

    def test_labelled_as_running_no_engine(self):
        result = butterfly_count(complete_bipartite(3, 3))
        assert result.backend == "none"
        assert result.backend_instrumented is False

    def test_results_must_name_their_engine(self):
        with pytest.raises(TypeError):
            CountResult(algorithm="x", query=BicliqueQuery(2, 2), count=0,
                        wall_seconds=0.0)

    def test_matches_brute_force(self, small_random, medium_power_law):
        for g in (small_random, medium_power_law):
            assert butterfly_count(g).count == \
                brute_force_count(g, BicliqueQuery(2, 2))

    def test_matches_gbc(self, small_random):
        from repro.core.gbc import gbc_count
        assert butterfly_count(small_random).count == \
            gbc_count(small_random, BicliqueQuery(2, 2)).count

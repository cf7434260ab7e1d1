"""Tests for synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph.bipartite import LAYER_U, LAYER_V
from repro.graph.generators import (
    paper_synthetic,
    planted_bicliques,
    power_law_bipartite,
    random_bipartite,
    star_bipartite,
)


class TestRandomBipartite:
    def test_exact_edge_count(self):
        g = random_bipartite(50, 40, 300, seed=0)
        assert g.num_edges == 300
        g.validate()

    def test_deterministic(self):
        a = random_bipartite(20, 20, 100, seed=7)
        b = random_bipartite(20, 20, 100, seed=7)
        assert np.array_equal(a.u_neighbors, b.u_neighbors)

    def test_different_seeds_differ(self):
        a = random_bipartite(20, 20, 100, seed=7)
        b = random_bipartite(20, 20, 100, seed=8)
        assert not np.array_equal(a.u_neighbors, b.u_neighbors)

    def test_too_many_edges(self):
        with pytest.raises(GraphValidationError):
            random_bipartite(3, 3, 10)


class TestPowerLaw:
    def test_shape(self):
        g = power_law_bipartite(200, 100, 800, seed=1)
        g.validate()
        assert g.num_u == 200 and g.num_v == 100
        # close to the requested edge budget (dedup can trim slightly)
        assert 0.5 * 800 <= g.num_edges <= 1.5 * 800

    def test_skewed_degrees(self):
        g = power_law_bipartite(300, 200, 1500, gamma=1.8, seed=2)
        dv = g.degrees(LAYER_V)
        assert dv.max() >= 4 * max(dv.mean(), 1)  # heavy head on V

    def test_deterministic(self):
        a = power_law_bipartite(40, 30, 150, seed=3)
        b = power_law_bipartite(40, 30, 150, seed=3)
        assert np.array_equal(a.u_neighbors, b.u_neighbors)


class TestPaperSynthetic:
    def test_valid(self):
        g = paper_synthetic(60, 50, mean_degree=8, locality=16, seed=4)
        g.validate()

    def test_locality_increases_two_hop_density(self):
        from repro.graph.twohop import n2k
        tight = paper_synthetic(60, 50, mean_degree=8, locality=12, seed=5)
        loose = paper_synthetic(60, 50, mean_degree=8, locality=50, seed=5)
        tight_mean = np.mean([len(n2k(tight, LAYER_U, u, 2))
                              for u in range(60)])
        loose_mean = np.mean([len(n2k(loose, LAYER_U, u, 2))
                              for u in range(60)])
        assert tight_mean > loose_mean


class TestPlanted:
    def test_plants_are_complete(self):
        g = planted_bicliques(10, 10, [(3, 4)], noise_edges=0, seed=0)
        for u in range(3):
            assert g.neighbors(LAYER_U, u).tolist() == [0, 1, 2, 3]

    def test_plants_disjoint(self):
        g = planted_bicliques(10, 10, [(2, 2), (3, 3)], seed=0)
        assert g.num_edges == 4 + 9

    def test_overflow_rejected(self):
        with pytest.raises(GraphValidationError):
            planted_bicliques(4, 4, [(3, 3), (3, 3)])

    def test_noise_added(self):
        base = planted_bicliques(15, 15, [(3, 3)], noise_edges=0, seed=2)
        noisy = planted_bicliques(15, 15, [(3, 3)], noise_edges=20, seed=2)
        assert noisy.num_edges == base.num_edges + 20

    def test_noise_beyond_free_pairs_rejected(self):
        """Asking for more noise than free pairs raises up front instead
        of drawing forever."""
        with pytest.raises(GraphValidationError):
            planted_bicliques(2, 2, [(2, 2)], noise_edges=1)
        with pytest.raises(GraphValidationError):
            planted_bicliques(3, 3, [(2, 2)], noise_edges=6)

    def test_noise_fills_every_free_pair(self):
        g = planted_bicliques(3, 3, [(2, 2)], noise_edges=5, seed=4)
        assert g.num_edges == 9


class TestStar:
    def test_center_u(self):
        g = star_bipartite(6, center_on_u=True)
        assert g.num_u == 1 and g.num_v == 6 and g.num_edges == 6

    def test_center_v(self):
        g = star_bipartite(6, center_on_u=False)
        assert g.num_u == 6 and g.degree(LAYER_V, 0) == 6

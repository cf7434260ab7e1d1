"""Tests for Definition-2 vertex priority and layer selection."""

import numpy as np
import pytest

from repro.graph.bipartite import LAYER_U, LAYER_V
from repro.graph.builders import complete_bipartite, from_adjacency
from repro.graph.priority import (
    priority_order,
    priority_rank,
    select_layer,
    wedge_mass,
)
from repro.graph.twohop import n2k


class TestPriorityOrder:
    def test_is_permutation(self, medium_power_law):
        order = priority_order(medium_power_law, LAYER_U, 2)
        assert sorted(order.tolist()) == list(range(medium_power_law.num_u))

    def test_fewest_two_hop_first(self, small_random):
        order = priority_order(small_random, LAYER_U, 2)
        sizes = [len(n2k(small_random, LAYER_U, int(u), 2)) for u in order]
        assert sizes == sorted(sizes)

    def test_tie_break_by_id(self):
        g = complete_bipartite(4, 3)  # all |N2^k| equal
        order = priority_order(g, LAYER_U, 2)
        assert order.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("fixture", ["medium_power_law",
                                         "small_random"])
    @pytest.mark.parametrize("layer", [LAYER_U, LAYER_V])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_per_vertex_reference(self, request, fixture, layer, k):
        """The one-wedge-pass order equals the definition computed vertex
        by vertex: ascending |N2^k|, ties to the smaller id."""
        g = request.getfixturevalue(fixture)
        ids = np.arange(g.layer_size(layer), dtype=np.int64)
        sizes = np.asarray([len(n2k(g, layer, int(u), k)) for u in ids],
                           dtype=np.int64)
        assert np.array_equal(priority_order(g, layer, k),
                              ids[np.lexsort((ids, sizes))])

    def test_rank_inverts_order(self, small_random):
        order = priority_order(small_random, LAYER_U, 2)
        rank = priority_rank(small_random, LAYER_U, 2)
        for pos, vertex in enumerate(order.tolist()):
            assert rank[vertex] == pos


class TestWedgeMass:
    def test_star(self):
        # one V-hub of degree 4: wedge mass through V = 4*3 = 12
        g = from_adjacency({0: [0], 1: [0], 2: [0], 3: [0]})
        assert wedge_mass(g, LAYER_V) == 12
        assert wedge_mass(g, LAYER_U) == 0

    def test_complete(self):
        g = complete_bipartite(3, 3)
        assert wedge_mass(g, LAYER_V) == 3 * 3 * 2


class TestSelectLayer:
    def test_prefers_cheaper_side(self):
        # V has a huge hub -> anchoring on U would be expensive
        g = from_adjacency({u: [0] for u in range(10)})
        assert select_layer(g, 2, 2) == LAYER_V

    def test_symmetric_tie_uses_p_q(self):
        g = complete_bipartite(3, 3)
        assert select_layer(g, 2, 3) == LAYER_U
        assert select_layer(g, 3, 2) == LAYER_V

"""Tests for graph builders."""

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph.bipartite import LAYER_U
from repro.graph.builders import (
    complete_bipartite,
    empty_graph,
    from_adjacency,
    from_edges,
)


class TestFromEdges:
    def test_simple(self):
        g = from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])
        assert g.num_edges == 3
        assert g.neighbors(LAYER_U, 0).tolist() == [0, 1]

    def test_dedup(self):
        g = from_edges(2, 2, [(0, 0), (0, 0), (1, 1)])
        assert g.num_edges == 2

    def test_dedup_disabled_raises(self):
        with pytest.raises(GraphValidationError):
            from_edges(2, 2, [(0, 0), (0, 0)], dedup=False)

    def test_out_of_range_u(self):
        with pytest.raises(GraphValidationError):
            from_edges(2, 2, [(2, 0)])

    def test_out_of_range_v(self):
        with pytest.raises(GraphValidationError):
            from_edges(2, 2, [(0, 5)])

    def test_empty_edges(self):
        g = from_edges(3, 4, [])
        assert g.num_edges == 0
        assert g.degrees(LAYER_U).tolist() == [0, 0, 0]

    def test_transpose_consistency(self):
        g = from_edges(3, 3, [(0, 2), (1, 0), (2, 1), (0, 0)])
        g.validate()

    def test_array_input_matches_pairs(self):
        pairs = [(2, 1), (0, 2), (2, 1), (1, 0), (0, 0)]
        a = from_edges(3, 3, pairs)
        b = from_edges(3, 3, np.asarray(pairs, dtype=np.int64))
        assert a.num_edges == b.num_edges == 4
        for f in ("u_offsets", "u_neighbors", "v_offsets", "v_neighbors"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert a.neighbors("V", 1).tolist() == [2]
        assert a.neighbors("V", 0).tolist() == [0, 1]

    def test_array_input_validated(self):
        with pytest.raises(GraphValidationError):
            from_edges(2, 2, np.array([[0, 1, 1]]))
        with pytest.raises(GraphValidationError):
            from_edges(2, 2, np.array([[0, -1]]))


class TestFromAdjacency:
    def test_dict_input(self):
        g = from_adjacency({0: [1, 0], 2: [2]})
        assert g.num_u == 3
        assert g.neighbors(LAYER_U, 0).tolist() == [0, 1]
        assert g.degree(LAYER_U, 1) == 0

    def test_list_input(self):
        g = from_adjacency([[0, 1], [1]])
        assert g.num_u == 2 and g.num_v == 2

    def test_duplicate_neighbors_collapsed(self):
        g = from_adjacency({0: [1, 1, 1]})
        assert g.degree(LAYER_U, 0) == 1

    def test_explicit_sizes(self):
        g = from_adjacency({0: [0]}, num_u=4, num_v=6)
        assert g.num_u == 4 and g.num_v == 6

    def test_out_of_range_keys_raise(self):
        """A key outside [0, num_u) is an error, as an extra list row
        is, not a silently dropped row."""
        with pytest.raises(GraphValidationError):
            from_adjacency({0: [1], 5: [0], -1: [0]}, num_u=2, num_v=2)
        with pytest.raises(GraphValidationError):
            from_adjacency({0: [1], 2: [0]}, num_u=2, num_v=2)
        with pytest.raises(GraphValidationError):
            from_adjacency({-1: [0]})
        with pytest.raises(GraphValidationError, match="more rows"):
            from_adjacency([[1], [0], [0]], num_u=2, num_v=2)

    def test_out_of_range_neighbor_raises(self):
        with pytest.raises(GraphValidationError):
            from_adjacency({0: [2]}, num_u=1, num_v=2)


class TestCompleteAndEmpty:
    def test_complete_edge_count(self):
        g = complete_bipartite(3, 4)
        assert g.num_edges == 12
        g.validate()

    def test_complete_degrees(self):
        g = complete_bipartite(3, 4)
        assert all(g.degree(LAYER_U, u) == 4 for u in range(3))

    def test_empty(self):
        g = empty_graph(5, 0)
        assert g.num_edges == 0
        g.validate()

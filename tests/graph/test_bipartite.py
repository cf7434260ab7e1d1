"""Tests for the core BipartiteGraph structure."""

import numpy as np
import pytest

from repro.errors import GraphValidationError, ReorderError
from repro.graph.bipartite import LAYER_U, LAYER_V, other_layer
from repro.graph.builders import empty_graph, from_edges


class TestOtherLayer:
    def test_swaps(self):
        assert other_layer(LAYER_U) == LAYER_V
        assert other_layer(LAYER_V) == LAYER_U

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            other_layer("X")


class TestBasicAccessors:
    def test_counts(self, paper_graph):
        assert paper_graph.num_u == 5
        assert paper_graph.num_v == 5
        assert paper_graph.num_edges == 16

    def test_layer_size(self, paper_graph):
        assert paper_graph.layer_size(LAYER_U) == 5
        assert paper_graph.layer_size(LAYER_V) == 5

    def test_neighbors_sorted(self, paper_graph):
        for u in range(paper_graph.num_u):
            row = paper_graph.neighbors(LAYER_U, u)
            assert np.all(np.diff(row) > 0)

    def test_neighbors_values(self, paper_graph):
        assert paper_graph.neighbors(LAYER_U, 0).tolist() == [3, 4]
        assert paper_graph.neighbors(LAYER_U, 2).tolist() == [0, 1, 2, 4]

    def test_reverse_neighbors(self, paper_graph):
        # v0 is adjacent to u1, u2, u4
        assert paper_graph.neighbors(LAYER_V, 0).tolist() == [1, 2, 4]

    def test_degree(self, paper_graph):
        assert paper_graph.degree(LAYER_U, 1) == 3
        assert paper_graph.degree(LAYER_V, 2) == 4

    def test_degrees_sum_to_edges(self, paper_graph):
        assert int(paper_graph.degrees(LAYER_U).sum()) == paper_graph.num_edges
        assert int(paper_graph.degrees(LAYER_V).sum()) == paper_graph.num_edges

    def test_has_edge(self, paper_graph):
        assert paper_graph.has_edge(1, 1)
        assert not paper_graph.has_edge(0, 0)

    def test_edges_iteration(self, paper_graph):
        edges = list(paper_graph.edges())
        assert len(edges) == paper_graph.num_edges
        assert (0, 3) in edges and (4, 4) in edges


class TestSwapped:
    def test_roundtrip(self, paper_graph):
        s = paper_graph.swapped()
        assert s.num_u == paper_graph.num_v
        assert s.num_edges == paper_graph.num_edges
        back = s.swapped()
        assert np.array_equal(back.u_neighbors, paper_graph.u_neighbors)

    def test_swapped_adjacency(self, paper_graph):
        s = paper_graph.swapped()
        assert s.neighbors(LAYER_U, 0).tolist() == \
            paper_graph.neighbors(LAYER_V, 0).tolist()


class TestRelabeled:
    def test_identity(self, paper_graph):
        g = paper_graph.relabeled()
        assert np.array_equal(g.u_neighbors, paper_graph.u_neighbors)

    def test_permutation_preserves_edges(self, small_random):
        rng = np.random.default_rng(0)
        pu = rng.permutation(small_random.num_u)
        pv = rng.permutation(small_random.num_v)
        g = small_random.relabeled(pu, pv)
        g.validate()
        assert g.num_edges == small_random.num_edges
        for u in range(small_random.num_u):
            old = set(map(int, small_random.neighbors(LAYER_U, u)))
            new = set(map(int, g.neighbors(LAYER_U, int(pu[u]))))
            assert new == {int(pv[v]) for v in old}

    def test_invalid_permutation_rejected(self, paper_graph):
        with pytest.raises(ReorderError):
            paper_graph.relabeled(np.zeros(5, dtype=np.int64), None)


class TestInducedSubgraph:
    def test_full_subgraph_is_same(self, paper_graph):
        sub = paper_graph.induced_subgraph(np.arange(5), np.arange(5))
        assert sub.num_edges == paper_graph.num_edges

    def test_partial(self, paper_graph):
        sub = paper_graph.induced_subgraph([1, 2], [0, 1, 2])
        sub.validate()
        assert sub.num_u == 2 and sub.num_v == 3
        # u1 -> {v0,v1,v2} all kept; u2 -> {v0,v1,v2} (v4 dropped)
        assert sub.neighbors(LAYER_U, 0).tolist() == [0, 1, 2]
        assert sub.neighbors(LAYER_U, 1).tolist() == [0, 1, 2]

    def test_partial_dropped_edges(self, paper_graph):
        sub = paper_graph.induced_subgraph([0, 3], [3])
        assert sub.neighbors(LAYER_U, 0).tolist() == [0]
        assert sub.neighbors(LAYER_U, 1).tolist() == [0]

    def test_renumbering(self, paper_graph):
        sub = paper_graph.induced_subgraph([4], [3, 4])
        assert sub.neighbors(LAYER_U, 0).tolist() == [0, 1]

    def test_kept_order_renumbers(self, paper_graph):
        """Kept V ids are renumbered in the order given, so each new row
        is re-sorted under the new ids."""
        sub = paper_graph.induced_subgraph([4], [4, 3])
        assert sub.neighbors(LAYER_U, 0).tolist() == [0, 1]
        assert sub.neighbors(LAYER_V, 0).tolist() == [0]

    def test_out_of_range_ids_raise(self, paper_graph):
        """A negative id would wrap around under numpy indexing."""
        with pytest.raises(GraphValidationError):
            paper_graph.induced_subgraph([0], [-1])
        with pytest.raises(GraphValidationError):
            paper_graph.induced_subgraph([5], [0])


class TestValidate:
    def test_good_graph_passes(self, paper_graph, small_random):
        paper_graph.validate()
        small_random.validate()

    def test_empty_graph_passes(self):
        empty_graph(3, 4).validate()

    def test_detects_bad_offsets(self, paper_graph):
        from repro.graph.bipartite import BipartiteGraph
        bad = BipartiteGraph(paper_graph.num_u, paper_graph.num_v,
                             paper_graph.u_offsets[:-1],
                             paper_graph.u_neighbors,
                             paper_graph.v_offsets,
                             paper_graph.v_neighbors)
        with pytest.raises(GraphValidationError):
            bad.validate()

    def test_detects_unsorted_rows(self):
        from repro.graph.bipartite import BipartiteGraph
        g = from_edges(2, 3, [(0, 0), (0, 2), (1, 1)])
        tampered = g.u_neighbors.copy()
        tampered[0], tampered[1] = tampered[1], tampered[0]
        bad = BipartiteGraph(g.num_u, g.num_v, g.u_offsets, tampered,
                             g.v_offsets, g.v_neighbors)
        with pytest.raises(GraphValidationError):
            bad.validate()

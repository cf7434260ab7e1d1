"""Tests for 2-hop neighbourhood computation (N2, N2^k, the index)."""

import numpy as np
import pytest

from repro.bench.datasets import list_datasets, load_dataset
from repro.graph import twohop
from repro.graph.bipartite import LAYER_U, LAYER_V
from repro.graph.builders import complete_bipartite, from_adjacency
from repro.graph.priority import priority_rank
from repro.graph.twohop import (
    build_two_hop_index,
    build_wedge_index,
    n2k,
    two_hop_multiset,
)

FIXTURES = ("paper_graph", "small_random", "medium_power_law",
            "synthetic_graph", "planted_graph")


@pytest.fixture(params=FIXTURES + tuple(f"tiny-{name}"
                                        for name in list_datasets()))
def any_graph(request):
    """Every shared fixture graph and every tiny stand-in."""
    if request.param.startswith("tiny-"):
        return load_dataset(request.param[len("tiny-"):], "tiny")
    return request.getfixturevalue(request.param)


def _filtered_full_pass(graph, layer, floor):
    """The floor-1 pass's (offsets, neighbors, counts) restricted to
    multiplicity >= floor, row by row."""
    full = build_wedge_index(graph, layer)
    keep = full.counts >= floor
    offsets = np.zeros_like(full.offsets)
    for u in range(full.num_vertices):
        lo, hi = full.offsets[u], full.offsets[u + 1]
        offsets[u + 1] = offsets[u] + int(keep[lo:hi].sum())
    return offsets, full.neighbors[keep], full.counts[keep]


class TestTwoHopMultiset:
    def test_paper_example(self, paper_graph):
        """Example 1: u2 & u3 share {v1,v2}; u2 & u4 share {v0,v2,v4};
        u3 & u4 share {v2,v3}."""
        verts, counts = two_hop_multiset(paper_graph, LAYER_U, 2)
        got = dict(zip(verts.tolist(), counts.tolist()))
        assert got[3] == 2
        assert got[4] == 3

    def test_excludes_self(self, paper_graph):
        verts, _ = two_hop_multiset(paper_graph, LAYER_U, 1)
        assert 1 not in verts.tolist()

    def test_isolated_vertex(self):
        g = from_adjacency({0: [0], 2: [1]}, num_u=3, num_v=2)
        verts, counts = two_hop_multiset(g, LAYER_U, 1)
        assert len(verts) == 0

    def test_sorted_output(self, medium_power_law):
        verts, _ = two_hop_multiset(medium_power_law, LAYER_U, 0)
        assert np.all(np.diff(verts) > 0)

    def test_symmetry(self, small_random):
        """u' in N2(u) with count c iff u in N2(u') with count c."""
        for u in range(small_random.num_u):
            verts, counts = two_hop_multiset(small_random, LAYER_U, u)
            for w, c in zip(verts.tolist(), counts.tolist()):
                back_v, back_c = two_hop_multiset(small_random, LAYER_U, w)
                idx = back_v.tolist().index(u)
                assert back_c[idx] == c


class TestN2k:
    def test_threshold(self, paper_graph):
        # u2's 2-hop neighbours with >= 2 shared: u1 (shares v0,v1,v2),
        # u3 (v1,v2), u4 (v0,v2,v4); u0 shares only v4
        assert n2k(paper_graph, LAYER_U, 2, 2).tolist() == [1, 3, 4]
        # with >= 3 shared: u1 and u4 only
        assert n2k(paper_graph, LAYER_U, 2, 3).tolist() == [1, 4]

    def test_k_one_is_all_two_hop(self, small_random):
        for u in range(5):
            verts, _ = two_hop_multiset(small_random, LAYER_U, u)
            assert np.array_equal(n2k(small_random, LAYER_U, u, 1), verts)

    def test_complete_graph(self):
        g = complete_bipartite(4, 3)
        for u in range(4):
            assert n2k(g, LAYER_U, u, 3).tolist() == \
                [x for x in range(4) if x != u]

    def test_v_layer(self, paper_graph):
        # v0 and v1 share u1 and u2
        lst = n2k(paper_graph, LAYER_V, 0, 2)
        assert 1 in lst.tolist()


class TestTwoHopIndex:
    def test_matches_per_vertex(self, medium_power_law):
        index = build_two_hop_index(medium_power_law, LAYER_U, 2)
        for u in range(medium_power_law.num_u):
            assert np.array_equal(index.of(u),
                                  n2k(medium_power_law, LAYER_U, u, 2))

    def test_sizes(self, paper_graph):
        index = build_two_hop_index(paper_graph, LAYER_U, 2)
        assert index.size(2) == 3
        assert index.num_vertices == 5

    def test_rank_filter_halves_entries(self, small_random):
        full = build_two_hop_index(small_random, LAYER_U, 1)
        rank = np.arange(small_random.num_u, dtype=np.int64)
        filt = build_two_hop_index(small_random, LAYER_U, 1,
                                   min_priority_rank=rank)
        # symmetry: exactly half of the symmetric pairs survive
        assert filt.total_entries() * 2 == full.total_entries()

    def test_rank_filter_keeps_only_higher_rank(self, small_random):
        rng = np.random.default_rng(0)
        rank = rng.permutation(small_random.num_u).astype(np.int64)
        filt = build_two_hop_index(small_random, LAYER_U, 2,
                                   min_priority_rank=rank)
        for u in range(small_random.num_u):
            for w in filt.of(u):
                assert rank[int(w)] > rank[u]


class TestWedgeIndex:
    """One wedge pass must reproduce every k-derived structure exactly."""

    def test_rows_match_multiset(self, medium_power_law):
        wedges = build_wedge_index(medium_power_law, LAYER_U)
        for u in range(medium_power_law.num_u):
            verts, counts = two_hop_multiset(medium_power_law, LAYER_U, u)
            lo, hi = wedges.offsets[u], wedges.offsets[u + 1]
            assert np.array_equal(wedges.neighbors[lo:hi], verts)
            assert np.array_equal(wedges.counts[lo:hi], counts)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_n2k_sizes_match(self, small_random, k):
        wedges = build_wedge_index(small_random, LAYER_U)
        sizes = wedges.n2k_sizes(k)
        for u in range(small_random.num_u):
            assert sizes[u] == len(n2k(small_random, LAYER_U, u, k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_hop_index_matches_classic_builder(self, small_random, k):
        wedges = build_wedge_index(small_random, LAYER_U)
        rng = np.random.default_rng(1)
        for rank in (None,
                     np.arange(small_random.num_u, dtype=np.int64),
                     rng.permutation(small_random.num_u).astype(np.int64)):
            classic = build_two_hop_index(small_random, LAYER_U, k,
                                          min_priority_rank=rank)
            derived = wedges.two_hop_index(k, min_priority_rank=rank)
            assert np.array_equal(derived.offsets, classic.offsets)
            assert np.array_equal(derived.neighbors, classic.neighbors)
            assert derived.k == classic.k and derived.layer == classic.layer

    def test_empty_layer(self):
        g = from_adjacency({0: [0], 2: [1]}, num_u=3, num_v=2)
        wedges = build_wedge_index(g, LAYER_U)
        assert wedges.num_vertices == 3
        assert wedges.n2k_sizes(1).tolist() == [0, 0, 0]
        idx = wedges.two_hop_index(1)
        assert idx.total_entries() == 0


class TestCompactPass:
    """A pass at ``floor=f`` is the full pass filtered to counts >= f."""

    @pytest.mark.parametrize("floor", [1, 2, 3])
    @pytest.mark.parametrize("layer", [LAYER_U, LAYER_V])
    def test_equals_filtered_full_pass(self, any_graph, layer, floor):
        got = build_wedge_index(any_graph, layer, floor=floor)
        offsets, neighbors, counts = _filtered_full_pass(any_graph, layer,
                                                         floor)
        assert got.floor == floor and got.layer == layer
        assert got.offsets.dtype == np.int64
        assert got.neighbors.dtype == got.counts.dtype == np.int32
        assert np.array_equal(got.offsets, offsets)
        assert np.array_equal(got.neighbors, neighbors)
        assert np.array_equal(got.counts, counts)
        assert got.nbytes == (got.offsets.nbytes + got.neighbors.nbytes
                              + got.counts.nbytes)

    @pytest.mark.parametrize("floor", [1, 2, 3])
    def test_k_structures_match_floor_one(self, any_graph, floor):
        full = build_wedge_index(any_graph, LAYER_U)
        compact = build_wedge_index(any_graph, LAYER_U, floor=floor)
        rank = priority_rank(any_graph, LAYER_U, 2)
        for k in range(floor, floor + 3):
            assert np.array_equal(compact.n2k_sizes(k), full.n2k_sizes(k))
            assert compact.n2k_sizes(k).dtype == np.int64
            for r in (None, rank):
                got = compact.two_hop_index(k, min_priority_rank=r)
                want = full.two_hop_index(k, min_priority_rank=r)
                assert got.offsets.dtype == want.offsets.dtype == np.int64
                assert got.neighbors.dtype == want.neighbors.dtype == \
                    np.int64
                assert np.array_equal(got.offsets, want.offsets)
                assert np.array_equal(got.neighbors, want.neighbors)
        with pytest.raises(ValueError, match="floor"):
            compact.n2k_sizes(floor - 1)
        with pytest.raises(ValueError, match="floor"):
            compact.two_hop_index(floor - 1, min_priority_rank=rank)

    def test_floor_below_one_rejected(self, paper_graph):
        with pytest.raises(ValueError, match="floor"):
            build_wedge_index(paper_graph, LAYER_U, floor=0)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_never_changes_the_arrays(self, monkeypatch,
                                                 medium_power_law, chunk):
        """With a chunk of a few wedges, one pass runs as dozens to
        thousands of batches whose rows are stitched back together."""
        whole = {f: build_wedge_index(medium_power_law, LAYER_U, floor=f)
                 for f in (1, 2, 3)}
        wedges = int((medium_power_law.degrees(LAYER_V) ** 2).sum())
        assert wedges > 50 * chunk
        monkeypatch.setattr(twohop, "_WEDGE_CHUNK", chunk)
        for f, want in whole.items():
            got = build_wedge_index(medium_power_law, LAYER_U, floor=f)
            assert np.array_equal(got.offsets, want.offsets)
            assert np.array_equal(got.neighbors, want.neighbors)
            assert np.array_equal(got.counts, want.counts)
            assert got.neighbors.dtype == got.counts.dtype == np.int32

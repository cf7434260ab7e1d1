"""2-hop neighbourhood computation (N2 and N2^k of the paper, §II).

For a vertex ``u`` on the anchored layer, ``N2(u)`` is the set of same-layer
vertices reachable through one intermediate vertex, and ``N2^k(u)`` keeps
only those sharing at least ``k`` common 1-hop neighbours with ``u``
(``k = q`` when anchoring on U).  Biclique counting repeatedly intersects
candidate sets with these lists, so we expose both a per-vertex routine and
a CSR-like precomputed index used by the counting kernels.

The index comes from one wedge pass (:func:`build_wedge_index`) that keeps
only the pairs a query can read: a pass at ``floor=f`` drops every pair
with fewer than ``f`` common neighbours as soon as its chunk is counted,
and serves every ``k >= f``.  Most 2-hop pairs share a single neighbour,
so a pass at floor 2 — what a session builds — is a fraction of the full
multiset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import gather_rows

__all__ = ["two_hop_multiset", "n2k", "TwoHopIndex", "build_two_hop_index",
           "WedgeIndex", "build_wedge_index"]


def _layer_csr(graph: BipartiteGraph, layer: str):
    """(own offsets, own neighbors, opposite offsets, opposite neighbors)."""
    from repro.graph.bipartite import LAYER_U
    if layer == LAYER_U:
        return (graph.u_offsets, graph.u_neighbors,
                graph.v_offsets, graph.v_neighbors)
    return (graph.v_offsets, graph.v_neighbors,
            graph.u_offsets, graph.u_neighbors)


def two_hop_multiset(graph: BipartiteGraph, layer: str, vertex: int):
    """Return (vertices, counts): each 2-hop neighbour of ``vertex`` and the
    number of shared 1-hop neighbours.  ``vertex`` itself is excluded.

    Vectorised as one gather over the opposite layer's CSR arrays plus a
    ``unique`` with counts — the wedge enumeration is the hottest part of
    host-side preprocessing for every algorithm.
    """
    mids = graph.neighbors(layer, vertex)
    if len(mids) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    _, _, offs, nbrs = _layer_csr(graph, layer)
    hops, _ = gather_rows(nbrs, offs, mids)
    verts, vals = np.unique(hops, return_counts=True)
    pos = int(np.searchsorted(verts, vertex))
    if pos < len(verts) and verts[pos] == vertex:
        verts = np.delete(verts, pos)
        vals = np.delete(vals, pos)
    return verts, vals.astype(np.int64, copy=False)


def n2k(graph: BipartiteGraph, layer: str, vertex: int, k: int) -> np.ndarray:
    """Sorted array of 2-hop neighbours sharing >= k common neighbours."""
    verts, counts = two_hop_multiset(graph, layer, vertex)
    return verts[counts >= k]


@dataclass(frozen=True)
class TwoHopIndex:
    """Precomputed N2^k lists for one layer in CSR form.

    ``neighbors[offsets[u]:offsets[u+1]]`` is the sorted N2^k(u) list. This
    mirrors what GBC materialises on the host before kernel launch
    (Algorithm 1, line 2).
    """

    layer: str
    k: int
    offsets: np.ndarray
    neighbors: np.ndarray

    def of(self, vertex: int) -> np.ndarray:
        """Sorted N2^k list of ``vertex`` (a view into the index)."""
        return self.neighbors[self.offsets[vertex]:self.offsets[vertex + 1]]

    def size(self, vertex: int) -> int:
        """|N2^k(vertex)|."""
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    def total_entries(self) -> int:
        """Total stored 2-hop entries (memory proxy for BCPar weights)."""
        return int(len(self.neighbors))

    @property
    def nbytes(self) -> int:
        """Host bytes held by the two arrays."""
        return self.offsets.nbytes + self.neighbors.nbytes


@dataclass(frozen=True)
class WedgeIndex:
    """The two-hop multiset of one layer at multiplicity ``floor`` or
    more, in CSR form.

    ``neighbors[offsets[u]:offsets[u+1]]`` are the sorted 2-hop
    neighbours of ``u`` sharing at least ``floor`` common neighbours
    with it, and ``counts[...]`` their shared-neighbour multiplicities
    (both int32) — the output of one wedge-enumeration pass.  At
    ``floor=1`` this is the full multiset.  Every k-dependent structure
    for ``k >= floor`` (|N2^k| sizes for the Definition-2 priority, the
    rank-filtered N2^k index) is a cheap filter over these arrays, which
    is what lets a :class:`repro.query.GraphSession` answer queries with
    different ``q`` values from a single wedge enumeration.  Asking for
    ``k < floor`` raises :class:`ValueError`: those pairs were dropped.
    """

    layer: str
    offsets: np.ndarray
    neighbors: np.ndarray
    counts: np.ndarray
    #: smallest multiplicity kept; the pass serves every k >= floor
    floor: int = 1

    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def nbytes(self) -> int:
        """Host bytes held by the three arrays."""
        return self.offsets.nbytes + self.neighbors.nbytes + \
            self.counts.nbytes

    def _threshold(self, k: int) -> np.ndarray | None:
        """The entries with multiplicity >= ``k``, or None for all."""
        if k < self.floor:
            raise ValueError(
                f"k={k} is below this wedge pass's floor {self.floor}: "
                f"pairs with fewer than {self.floor} common neighbours "
                f"were dropped")
        return None if k == self.floor else self.counts >= k

    def _kept(self, keep: np.ndarray | None):
        """(row offsets, positions) of the entries ``keep`` selects;
        None keeps every entry (positions None)."""
        if keep is None:
            return self.offsets, None
        at = np.flatnonzero(keep)
        # a row's new start is the number of kept entries before it
        return np.searchsorted(at, self.offsets), at

    def n2k_sizes(self, k: int) -> np.ndarray:
        """|N2^k(u)| for every vertex u — the Definition-2 sort key."""
        offsets, _ = self._kept(self._threshold(k))
        return np.diff(offsets)

    def two_hop_index(self, k: int,
                      min_priority_rank: np.ndarray | None = None
                      ) -> TwoHopIndex:
        """Materialise the N2^k index by filtering the stored multiset.

        Produces arrays identical to :func:`build_two_hop_index` on the
        same graph/layer/k/rank, without re-enumerating any wedges.
        """
        keep = self._threshold(k)
        if min_priority_rank is not None and len(self.neighbors):
            # ranks are positions below num_vertices, like the int32
            # neighbours; each entry's owner rank is repeated per row
            rank = np.asarray(min_priority_rank).astype(np.int32)
            higher = rank[self.neighbors] > np.repeat(
                rank, np.diff(self.offsets))
            keep = higher if keep is None else keep & higher
        offsets, at = self._kept(keep)
        neighbors = self.neighbors if at is None else self.neighbors[at]
        return TwoHopIndex(layer=self.layer, k=k, offsets=offsets,
                           neighbors=neighbors.astype(np.int64))


#: wedge budget per vectorised batch of build_wedge_index.  A batch holds
#: at most about 40 bytes per wedge in gather positions, int32 keys and
#: run arrays (under 3 MiB at 2^16); a root with more wedges is a batch
#: of its own.  Chosen by a sweep over 2^14-2^22 on the bench and full
#: stand-ins and a third-size YT: 2^16 was the fastest or within noise
#: everywhere, and from 2^20 up the batches set the pass's peak memory
_WEDGE_CHUNK = 1 << 16


def build_wedge_index(graph: BipartiteGraph, layer: str,
                      floor: int = 1) -> WedgeIndex:
    """One wedge-enumeration pass over ``layer``: the 2-hop multiset at
    multiplicity ``floor`` or more (``floor=1``, the default, keeps all).

    This is the expensive part of host-side preprocessing; everything
    downstream (priority order, N2^k for any ``k >= floor``) filters its
    output.  Whole batches of roots are processed per numpy pass: one
    gather of every root's 2-hop endpoints, then one sort of int32 keys
    ``root * n + hop`` (roots numbered from the batch's first), whose
    order (root-major, hop-minor) directly yields the per-root sorted
    rows; each run of equal keys is one pair and its length the pair's
    multiplicity.  Right after a batch is counted its self pairs and its
    pairs below ``floor`` are dropped, so only kept pairs outlive the
    batch.  Batches are cut so the transient wedge arrays stay within
    ``_WEDGE_CHUNK`` entries (a single root's wedges excepted) and the
    keys within int32.
    """
    if floor < 1:
        raise ValueError(f"floor must be >= 1, got {floor}")
    n = graph.layer_size(layer)
    own_off, mids, opp_off, opp_nbrs = _layer_csr(graph, layer)
    own_off = np.asarray(own_off, dtype=np.int64)
    hop_deg = (opp_off[mids + 1] - opp_off[mids]).astype(np.int64,
                                                         copy=False)
    csum = np.zeros(len(mids) + 1, dtype=np.int64)
    np.cumsum(hop_deg, out=csum[1:])
    wedges_per_root = csum[own_off[1:]] - csum[own_off[:-1]]

    max_roots = (2**31 - 1) // max(n, 1)    # root * n + hop < 2^31
    starts = [0]
    acc = 0
    for u, w in enumerate(wedges_per_root.tolist()):
        if (acc and acc + w > _WEDGE_CHUNK) or u - starts[-1] == max_roots:
            starts.append(u)
            acc = 0
        acc += w
    starts.append(n)

    hop_ids = opp_nbrs.astype(np.int32)
    vert_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    per_root = np.zeros(n, dtype=np.int64)
    for a, b in zip(starts[:-1], starts[1:]):
        e0, e1 = int(own_off[a]), int(own_off[b])
        if e0 == e1:
            continue
        edge_roots = np.repeat(np.arange(b - a, dtype=np.int32),
                               np.diff(own_off[a:b + 1]))
        hops, _ = gather_rows(hop_ids, opp_off, mids[e0:e1])
        if len(hops) == 0:
            continue
        hop_roots = np.repeat(edge_roots, hop_deg[e0:e1])
        keys = hop_roots * np.int32(n) + hops
        # the sort only permutes within each root's run of keys, so
        # hop_roots still names the root of every sorted key
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        at = np.flatnonzero(first)
        cnts = np.diff(at, append=len(keys))
        roots_of = hop_roots[at]
        verts = keys[at] - roots_of * np.int32(n)
        keep = verts != roots_of + a      # a root is not its own 2-hop
        if floor > 1:
            keep &= cnts >= floor
        vert_parts.append(verts[keep])
        count_parts.append(cnts[keep].astype(np.int32))
        per_root[a:b] += np.bincount(roots_of[keep], minlength=b - a)

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_root, out=offsets[1:])
    empty = [np.empty(0, dtype=np.int32)]
    neighbors = np.concatenate(vert_parts or empty)
    vert_parts.clear()          # so only one array's parts are copied
    counts = np.concatenate(count_parts or empty)
    return WedgeIndex(layer=layer, offsets=offsets, neighbors=neighbors,
                      counts=counts, floor=floor)


def build_two_hop_index(graph: BipartiteGraph, layer: str, k: int,
                        min_priority_rank: np.ndarray | None = None) -> TwoHopIndex:
    """Materialise N2^k for every vertex of ``layer``.

    When ``min_priority_rank`` is given (rank[vertex] = position in the
    priority order, 0 = highest priority), only 2-hop neighbours with a
    *lower* priority (larger rank) are stored.  This is the paper's trick
    for avoiding duplicate bicliques and halving index memory (§III-B:
    "neighbors with lower priority are not stored").

    One vectorised wedge pass at floor ``k`` plus the rank filter — the
    same arrays a :class:`WedgeIndex` of any floor up to ``k`` produces.
    """
    return build_wedge_index(graph, layer, floor=k).two_hop_index(
        k, min_priority_rank=min_priority_rank)

"""Core bipartite-graph data structure.

The whole reproduction works over :class:`BipartiteGraph`, an immutable
CSR (compressed sparse row) representation storing *both* directions of the
bipartite adjacency:

* ``U -> V``: ``u_offsets`` / ``u_neighbors``
* ``V -> U``: ``v_offsets`` / ``v_neighbors``

Neighbour lists are always sorted ascending, which every intersection
routine in the package relies on.  Vertices of each layer are dense integer
ids ``0 .. n-1``; the two layers have independent id spaces (as in the
paper, where reordering must also act on each layer independently).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import GraphValidationError
from repro.graph.csr import gather_rows

__all__ = ["BipartiteGraph", "LAYER_U", "LAYER_V", "other_layer",
           "graph_from_pairs"]

LAYER_U = "U"
LAYER_V = "V"


def other_layer(layer: str) -> str:
    """Return the opposite layer name (``"U"`` <-> ``"V"``)."""
    if layer == LAYER_U:
        return LAYER_V
    if layer == LAYER_V:
        return LAYER_U
    raise ValueError(f"unknown layer {layer!r}; expected 'U' or 'V'")


@dataclass(frozen=True)
class BipartiteGraph:
    """An unweighted, undirected bipartite graph G = (U, V, E) in dual CSR.

    Instances should be built through :mod:`repro.graph.builders` or the
    generators, not by hand; the constructor trusts its arrays (use
    :meth:`validate` when in doubt).
    """

    num_u: int
    num_v: int
    u_offsets: np.ndarray
    u_neighbors: np.ndarray
    v_offsets: np.ndarray
    v_neighbors: np.ndarray
    name: str = field(default="bipartite", compare=False)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges |E|."""
        return int(len(self.u_neighbors))

    def layer_size(self, layer: str) -> int:
        """Number of vertices on ``layer``."""
        return self.num_u if layer == LAYER_U else self.num_v

    def neighbors(self, layer: str, vertex: int) -> np.ndarray:
        """Sorted 1-hop neighbours of ``vertex`` on ``layer`` (a view)."""
        if layer == LAYER_U:
            return self.u_neighbors[self.u_offsets[vertex]:self.u_offsets[vertex + 1]]
        return self.v_neighbors[self.v_offsets[vertex]:self.v_offsets[vertex + 1]]

    def degree(self, layer: str, vertex: int) -> int:
        """Degree d(vertex) on ``layer``."""
        if layer == LAYER_U:
            return int(self.u_offsets[vertex + 1] - self.u_offsets[vertex])
        return int(self.v_offsets[vertex + 1] - self.v_offsets[vertex])

    def degrees(self, layer: str) -> np.ndarray:
        """Array of all degrees for ``layer``."""
        if layer == LAYER_U:
            return np.diff(self.u_offsets)
        return np.diff(self.v_offsets)

    def has_edge(self, u: int, v: int) -> bool:
        """True when (u, v) with u in U and v in V is an edge."""
        row = self.neighbors(LAYER_U, u)
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield every edge as (u, v) with u in U, v in V."""
        for u in range(self.num_u):
            for v in self.neighbors(LAYER_U, u):
                yield u, int(v)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def swapped(self) -> "BipartiteGraph":
        """The same graph with the two layers exchanged (U' = V, V' = U)."""
        return BipartiteGraph(
            num_u=self.num_v,
            num_v=self.num_u,
            u_offsets=self.v_offsets,
            u_neighbors=self.v_neighbors,
            v_offsets=self.u_offsets,
            v_neighbors=self.u_neighbors,
            name=self.name + "/swapped",
        )

    def relabeled(self, perm_u: np.ndarray | None = None,
                  perm_v: np.ndarray | None = None) -> "BipartiteGraph":
        """Apply layer-local permutations; ``perm[old_id] = new_id``.

        Either permutation may be None (identity).  The result is a new
        graph isomorphic to this one, with sorted neighbour lists rebuilt
        under the new ids.  This is how reorderings (Border, Gorder, degree)
        are materialised.
        """
        perm_u = np.arange(self.num_u, dtype=np.int64) if perm_u is None \
            else np.asarray(perm_u, dtype=np.int64)
        perm_v = np.arange(self.num_v, dtype=np.int64) if perm_v is None \
            else np.asarray(perm_v, dtype=np.int64)
        _check_permutation(perm_u, self.num_u, "U")
        _check_permutation(perm_v, self.num_v, "V")

        us = np.repeat(perm_u, np.diff(self.u_offsets))
        return graph_from_pairs(self.num_u, self.num_v, us,
                                perm_v[self.u_neighbors],
                                name=self.name + "/relabeled")

    def induced_subgraph(self, keep_u: np.ndarray, keep_v: np.ndarray,
                         name: str | None = None) -> "BipartiteGraph":
        """Subgraph induced by the given (old-id) vertex subsets.

        Vertices are renumbered densely in the order given.  Used by the
        partition runner to materialise each partition as an autonomous
        graph, mirroring the paper's communication-free design (§VI).
        """
        keep_u = np.asarray(keep_u, dtype=np.int64)
        keep_v = np.asarray(keep_v, dtype=np.int64)
        for side, keep, n in (("U", keep_u, self.num_u),
                              ("V", keep_v, self.num_v)):
            if len(keep) and (keep.min() < 0 or keep.max() >= n):
                raise GraphValidationError(f"{side}: kept id out of range")
        new_v = np.full(self.num_v, -1, dtype=np.int64)
        new_v[keep_v] = np.arange(len(keep_v), dtype=np.int64)
        nbrs, lens = gather_rows(self.u_neighbors, self.u_offsets, keep_u)
        us = np.repeat(np.arange(len(keep_u), dtype=np.int64), lens)
        vs = new_v[nbrs]
        kept = vs >= 0
        return graph_from_pairs(len(keep_u), len(keep_v), us[kept], vs[kept],
                                name=name or (self.name + "/sub"))

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raise GraphValidationError."""
        if self.num_u < 0 or self.num_v < 0:
            raise GraphValidationError("negative layer size")
        for side, off, nbr, n_rows, n_cols in (
            ("U", self.u_offsets, self.u_neighbors, self.num_u, self.num_v),
            ("V", self.v_offsets, self.v_neighbors, self.num_v, self.num_u),
        ):
            if len(off) != n_rows + 1:
                raise GraphValidationError(f"{side}: offsets length mismatch")
            if off[0] != 0 or off[-1] != len(nbr):
                raise GraphValidationError(f"{side}: offsets endpoints wrong")
            if np.any(np.diff(off) < 0):
                raise GraphValidationError(f"{side}: offsets not monotone")
            if len(nbr) and (nbr.min() < 0 or nbr.max() >= n_cols):
                raise GraphValidationError(f"{side}: neighbor out of range")
            for row_id in range(n_rows):
                row = nbr[off[row_id]:off[row_id + 1]]
                if len(row) > 1 and np.any(np.diff(row) <= 0):
                    raise GraphValidationError(
                        f"{side}: row {row_id} not strictly sorted")
        if len(self.u_neighbors) != len(self.v_neighbors):
            raise GraphValidationError("edge count differs between directions")
        # spot-check the transpose relation on a few rows
        for u in range(min(self.num_u, 16)):
            for v in self.neighbors(LAYER_U, u):
                back = self.neighbors(LAYER_V, int(v))
                pos = np.searchsorted(back, u)
                if pos >= len(back) or back[pos] != u:
                    raise GraphValidationError(
                        f"edge ({u},{int(v)}) missing from V->U direction")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BipartiteGraph(name={self.name!r}, |U|={self.num_u}, "
                f"|V|={self.num_v}, |E|={self.num_edges})")


def _check_permutation(perm: np.ndarray, n: int, side: str) -> None:
    if len(perm) != n or not np.array_equal(np.sort(perm), np.arange(n)):
        from repro.errors import ReorderError
        raise ReorderError(f"invalid permutation for layer {side}")


def _offsets(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of ``n`` rows from the row id of every (sorted) entry."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=offsets[1:])
    return offsets


def graph_from_pairs(num_u: int, num_v: int, us: np.ndarray, vs: np.ndarray,
                     name: str = "bipartite",
                     dedup: bool = True) -> BipartiteGraph:
    """The one CSR builder: both directions of a graph from its edge pairs.

    ``us[i]``/``vs[i]`` is the i-th edge; an id outside ``[0, num_u)``
    or ``[0, num_v)`` raises :class:`GraphValidationError`.  The pairs
    are sorted once, by the key ``u * num_v + v`` (which cannot
    overflow: a graph whose offsets fit in memory has ``num_u * num_v``
    far below 2**63), so each U row comes out ascending.  Repeated pairs
    collapse, or raise :class:`GraphValidationError` when ``dedup`` is
    False.  The V -> U direction is a stable argsort of the sorted pairs
    by v, which keeps each V row's u ids ascending.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    for side, ids, n in (("u", us, num_u), ("v", vs, num_v)):
        if len(ids) and (ids.min() < 0 or ids.max() >= n):
            raise GraphValidationError(f"{side} id out of range")
    key = us * num_v + vs
    key.sort()
    if len(key) > 1:
        repeat = key[1:] == key[:-1]
        if repeat.any():
            if not dedup:
                raise GraphValidationError("duplicate edge in input")
            key = key[np.concatenate(([True], ~repeat))]
    us, vs = np.divmod(key, max(num_v, 1))
    order = np.argsort(vs, kind="stable")
    return BipartiteGraph(num_u, num_v, _offsets(us, num_u), vs,
                          _offsets(vs, num_v), us[order], name=name)

"""Constructors that turn edge lists / adjacency mappings into graphs.

These are the supported ways to create a :class:`BipartiteGraph`; they
deduplicate edges, sort neighbour lists and build both CSR directions.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import GraphValidationError
from repro.graph.bipartite import BipartiteGraph, graph_from_pairs

__all__ = ["from_edges", "from_adjacency", "empty_graph", "complete_bipartite"]


def from_edges(num_u: int, num_v: int,
               edges: Iterable[tuple[int, int]] | np.ndarray,
               name: str = "bipartite",
               dedup: bool = True) -> BipartiteGraph:
    """Build a graph from (u, v) pairs with u in [0, num_u), v in [0, num_v).

    ``edges`` is an iterable of pairs or an ``(E, 2)`` integer array.
    Duplicate edges are collapsed when ``dedup`` is True (the default);
    with ``dedup=False`` a duplicate raises :class:`GraphValidationError`.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphValidationError("edges must be (u, v) pairs")
    return graph_from_pairs(num_u, num_v, arr[:, 0], arr[:, 1], name=name,
                            dedup=dedup)


def from_adjacency(adjacency: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
                   num_u: int | None = None,
                   num_v: int | None = None,
                   name: str = "bipartite") -> BipartiteGraph:
    """Build a graph from a U -> neighbours-in-V mapping (or list of lists).

    A mapping key, or a list position, is a vertex of U and must lie in
    ``[0, num_u)``; ``num_u`` defaults to one past the largest, and
    ``num_v`` to one past the largest neighbour.  Repeated neighbours
    collapse.
    """
    if isinstance(adjacency, Mapping):
        us = np.fromiter(adjacency.keys(), dtype=np.int64,
                         count=len(adjacency))
        rows = adjacency.values()
        num_u = num_u if num_u is not None else int(us.max(initial=-1)) + 1
        if len(us) and (us.min() < 0 or us.max() >= num_u):
            raise GraphValidationError(
                f"adjacency key outside [0, {num_u})")
    else:
        num_u = num_u if num_u is not None else len(adjacency)
        if len(adjacency) > num_u:
            raise GraphValidationError("more rows than num_u")
        us = np.arange(len(adjacency), dtype=np.int64)
        rows = adjacency
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(us))
    vs = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                     count=int(lens.sum()))
    num_v = num_v if num_v is not None else int(vs.max(initial=-1)) + 1
    return graph_from_pairs(num_u, num_v, np.repeat(us, lens), vs, name=name)


def empty_graph(num_u: int, num_v: int, name: str = "empty") -> BipartiteGraph:
    """A graph with the given layer sizes and no edges."""
    return from_edges(num_u, num_v, [], name=name)


def complete_bipartite(num_u: int, num_v: int,
                       name: str | None = None) -> BipartiteGraph:
    """K_{num_u, num_v}: every (u, v) pair is an edge.

    Closed-form ground truth for tests: the number of (p, q)-bicliques is
    C(num_u, p) * C(num_v, q).
    """
    us = np.repeat(np.arange(num_u, dtype=np.int64), num_v)
    vs = np.tile(np.arange(num_v, dtype=np.int64), num_u)
    return graph_from_pairs(num_u, num_v, us, vs,
                            name=name or f"K_{num_u}_{num_v}")

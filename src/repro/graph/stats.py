"""Dataset statistics, in the shape of the paper's Table II."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph, LAYER_U, LAYER_V

__all__ = ["GraphStats", "compute_stats", "graph_fingerprint",
           "format_table2_row", "TABLE2_HEADER"]

TABLE2_HEADER = f"{'Dataset':<14}{'|U|':>10}{'|V|':>10}{'|E|':>12}{'dU':>9}{'dV':>9}"


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a bipartite graph (Table II columns + extras)."""

    name: str
    num_u: int
    num_v: int
    num_edges: int
    mean_degree_u: float
    mean_degree_v: float
    max_degree_u: int
    max_degree_v: int
    degree_skew_u: float  # max / mean, a cheap skew proxy for load imbalance
    degree_skew_v: float


def compute_stats(graph: BipartiteGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    du = graph.degrees(LAYER_U)
    dv = graph.degrees(LAYER_V)
    mean_u = float(du.mean()) if len(du) else 0.0
    mean_v = float(dv.mean()) if len(dv) else 0.0
    max_u = int(du.max()) if len(du) else 0
    max_v = int(dv.max()) if len(dv) else 0
    return GraphStats(
        name=graph.name,
        num_u=graph.num_u,
        num_v=graph.num_v,
        num_edges=graph.num_edges,
        mean_degree_u=mean_u,
        mean_degree_v=mean_v,
        max_degree_u=max_u,
        max_degree_v=max_v,
        degree_skew_u=(max_u / mean_u) if mean_u else 0.0,
        degree_skew_v=(max_v / mean_v) if mean_v else 0.0,
    )


def graph_fingerprint(graph: BipartiteGraph) -> str:
    """A content hash of the graph's CSR arrays (layer sizes + edges).

    Two structurally identical graphs fingerprint identically whatever
    their ``name``; any edge difference — including in-place mutation
    of the underlying arrays — changes the digest.  This is the cache
    key component that ties cached counts (and the cost ledger's
    cells) to graph *content*.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray([graph.num_u, graph.num_v], dtype=np.int64).tobytes())
    for arr in (graph.u_offsets, graph.u_neighbors,
                graph.v_offsets, graph.v_neighbors):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def format_table2_row(stats: GraphStats) -> str:
    """Render one Table II row: name, |U|, |V|, |E|, mean degrees."""
    return (f"{stats.name:<14}{stats.num_u:>10}{stats.num_v:>10}"
            f"{stats.num_edges:>12}{stats.mean_degree_u:>9.2f}"
            f"{stats.mean_degree_v:>9.2f}")

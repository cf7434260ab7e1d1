"""Vertex priority (Definition 2) and layer selection.

The paper assigns each vertex of the anchored layer a unique priority so
that every biclique is enumerated exactly once (search proceeds from high
priority to low priority) and so that work is spread away from the
power-law head: a vertex with a *smaller* ``|N2^q|`` gets a *higher*
priority, ties broken by smaller id.

Layer selection follows BCL's degree heuristic: anchoring on layer U makes
the search trees branch over U's 2-hop neighbourhoods, whose total size is
the wedge count through V, i.e. sum over v of d(v)^2 terms.  We anchor on
the layer with the cheaper wedge mass.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph, LAYER_U, LAYER_V
from repro.graph.twohop import build_wedge_index

__all__ = ["priority_order", "priority_order_from_sizes", "priority_rank",
           "rank_from_order", "select_layer", "wedge_mass"]


def priority_order(graph: BipartiteGraph, layer: str, k: int) -> np.ndarray:
    """Vertices of ``layer`` sorted from highest to lowest priority.

    Position 0 holds the highest-priority vertex: the one with the fewest
    qualified 2-hop neighbours (|N2^k|), ties broken by smaller id
    (Definition 2).  The sizes come from one wedge pass at floor ``k``
    (:func:`~repro.graph.twohop.build_wedge_index`).
    """
    return priority_order_from_sizes(
        build_wedge_index(graph, layer, floor=k).n2k_sizes(k))


def priority_order_from_sizes(sizes: np.ndarray) -> np.ndarray:
    """The Definition-2 order given precomputed |N2^k| sizes.

    The one sort behind every Definition-2 order: :func:`priority_order`,
    :func:`repro.core.device_common.prepare_device_inputs` and
    :class:`repro.query.GraphSession` all take the sizes from
    :meth:`~repro.graph.twohop.WedgeIndex.n2k_sizes` and sort here:
    ascending |N2^k|, ties to the smaller id.
    """
    ids = np.arange(len(sizes), dtype=np.int64)
    return ids[np.lexsort((ids, sizes))]


def rank_from_order(order: np.ndarray) -> np.ndarray:
    """Invert a priority order into rank[vertex] = position (0 = highest).

    Callers that need both the order and the rank should compute the
    order once and invert it here — recomputing the order means a second
    full wedge-enumeration pass over the graph.
    """
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank


def priority_rank(graph: BipartiteGraph, layer: str, k: int) -> np.ndarray:
    """rank[vertex] = position of ``vertex`` in the priority order.

    rank 0 is the highest priority; the counting kernels only extend a
    partial result with strictly larger-rank candidates, which is what
    makes the enumeration duplicate-free.
    """
    return rank_from_order(priority_order(graph, layer, k))


def wedge_mass(graph: BipartiteGraph, through_layer: str) -> int:
    """Sum over vertices w of ``through_layer`` of d(w) * (d(w) - 1).

    This is (twice) the number of wedges centred on that layer — the work
    of collecting 2-hop neighbourhoods for the *opposite* layer.
    """
    d = graph.degrees(through_layer).astype(np.int64)
    return int(np.sum(d * (d - 1)))


def select_layer(graph: BipartiteGraph, p: int, q: int) -> str:
    """Choose the anchored layer as in BCL's degree-based heuristic.

    Anchoring on U costs wedges through V and builds search trees of depth
    p; anchoring on V costs wedges through U with depth q.  We pick the
    smaller wedge mass, breaking ties toward the layer with the smaller
    clique-side parameter (shallower trees).
    """
    cost_u = wedge_mass(graph, LAYER_V)
    cost_v = wedge_mass(graph, LAYER_U)
    if cost_u != cost_v:
        return LAYER_U if cost_u < cost_v else LAYER_V
    return LAYER_U if p <= q else LAYER_V

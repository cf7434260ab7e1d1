"""Butterfly ((2,2)-biclique) counting via the wedge formula.

The butterfly is the special case the paper anchors its motivation on
(§I: "the well-known butterfly concept corresponds to the (2,2)-biclique").
Counting them has a closed form over wedges: for each pair of U-vertices
sharing c common neighbours there are C(c, 2) butterflies, and the pair
totals can be aggregated per intermediate vertex.  This gives an
independent O(Σ d(v)^2) counter used to cross-check the general
algorithms at (p, q) = (2, 2).
"""

from __future__ import annotations

import time
from itertools import combinations
from math import comb

from repro.core.counts import BicliqueQuery, CountResult
from repro.graph.bipartite import BipartiteGraph, LAYER_U, LAYER_V

__all__ = ["butterfly_count"]


def butterfly_count(graph: BipartiteGraph) -> CountResult:
    """Exact butterfly count via pairwise wedge aggregation.

    Wedges centred on V are accumulated into per-U-pair common-neighbour
    counts c(u1, u2); the butterfly total is sum of C(c, 2).
    """
    start = time.perf_counter()
    pair_counts: dict[tuple[int, int], int] = {}
    for v in range(graph.num_v):
        nbrs = graph.neighbors(LAYER_V, v)
        for a, b in combinations(map(int, nbrs), 2):
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
    total = sum(comb(c, 2) for c in pair_counts.values())
    return CountResult(
        algorithm="wedge-butterfly",
        query=BicliqueQuery(2, 2),
        count=total,
        wall_seconds=time.perf_counter() - start,
        anchored_layer=LAYER_U,
        extras={"u_pairs_with_wedges": float(len(pair_counts))},
        backend="none",
        backend_instrumented=False,
    )

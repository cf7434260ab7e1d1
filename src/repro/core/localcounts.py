"""Per-vertex local (p, q)-biclique counts.

The paper's GNN motivation ([53], §I) weights information aggregation by
each vertex's participation in (p, q)-bicliques, which needs *local*
counts: ``local(x)`` = number of (p, q)-bicliques containing vertex
``x``.  The enumeration is the same duplicate-free search the global
counters use, with two attribution rules at each leaf holding partial
result L and candidate set CR:

* every u in L joins all C(|CR|, q) bicliques of that leaf;
* every v in CR joins C(|CR| - 1, q - 1) of them (the bicliques whose R
  contains v).

Identities used as self-checks (and asserted in tests):
``sum(local_u) == p * total`` and ``sum(local_v) == q * total``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np

from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs
from repro.engine.base import KernelBackend, resolve_backend
from repro.graph.bipartite import BipartiteGraph, LAYER_U

__all__ = ["LocalCountResult", "local_biclique_counts"]


@dataclass
class LocalCountResult:
    """Local counts for both layers plus the implied global count."""

    query: BicliqueQuery
    total: int
    counts_u: np.ndarray    # per original-U vertex
    counts_v: np.ndarray    # per original-V vertex
    wall_seconds: float

    def top_vertices(self, layer: str, k: int = 10) -> list[tuple[int, int]]:
        """The k vertices of ``layer`` with the highest participation."""
        arr = self.counts_u if layer == LAYER_U else self.counts_v
        order = np.argsort(-arr, kind="stable")[:k]
        return [(int(i), int(arr[i])) for i in order]


def local_biclique_counts(graph: BipartiteGraph,
                          query: BicliqueQuery,
                          layer: str | None = None,
                          backend: KernelBackend | str | None = None
                          ) -> LocalCountResult:
    """Exact local (p, q)-biclique counts for every vertex."""
    engine = resolve_backend(backend)
    start = time.perf_counter()
    inputs = prepare_device_inputs(graph, query, layer)
    g, p, q, index = inputs.graph, inputs.p, inputs.q, inputs.index

    counts_anchor = np.zeros(g.num_u, dtype=object)
    counts_other = np.zeros(g.num_v, dtype=object)
    total = 0

    def leaf(path: list[int], cr: np.ndarray) -> None:
        nonlocal total
        found = comb(len(cr), q)
        if found == 0:
            return
        total += found
        for u in path:
            counts_anchor[u] += found
        share = comb(len(cr) - 1, q - 1)
        for v in cr:
            counts_other[int(v)] += share

    def rec(path: list[int], cl: np.ndarray, cr: np.ndarray) -> None:
        for u in cl:
            u = int(u)
            new_cr = engine.merge(cr, g.neighbors(LAYER_U, u))
            if len(new_cr) < q:
                continue
            path.append(u)
            if len(path) == p:
                leaf(path, new_cr)
            else:
                new_cl = engine.merge(cl, index.of(u))
                if len(new_cl) >= p - len(path):
                    rec(path, new_cl, new_cr)
            path.pop()

    for root in inputs.roots.tolist():
        cr0 = g.neighbors(LAYER_U, root)
        if p == 1:
            leaf([root], cr0)
        else:
            rec([root], index.of(root), cr0)

    if inputs.anchored_layer == LAYER_U:
        counts_u, counts_v = counts_anchor, counts_other
    else:
        counts_u, counts_v = counts_other, counts_anchor
    return LocalCountResult(
        query=query,
        total=total,
        counts_u=counts_u.astype(object),
        counts_v=counts_v.astype(object),
        wall_seconds=time.perf_counter() - start,
    )

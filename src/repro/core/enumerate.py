"""Biclique *enumeration*: yield every (p, q)-biclique, not just the count.

The paper's problem family is "counting and enumeration" ([53] is titled
that way); densest-subgraph and cohesive-subgroup applications need the
actual vertex sets.  This module exposes a generator over (L, R) pairs
using the same duplicate-free priority-ordered search as the counters —
each biclique is produced exactly once, with L in priority-rank order and
R as a sorted tuple.

Enumeration is inherently output-bound (the count is often astronomically
larger than anything one wants to materialise), so the generator is lazy
and supports an explicit ``limit``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs
from repro.engine.base import KernelBackend, resolve_backend
from repro.graph.bipartite import BipartiteGraph, LAYER_U

__all__ = ["enumerate_bicliques"]


def enumerate_bicliques(graph: BipartiteGraph,
                        query: BicliqueQuery,
                        layer: str | None = None,
                        limit: int | None = None,
                        backend: KernelBackend | str | None = None
                        ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield every (p, q)-biclique of ``graph`` as (L, R) id tuples.

    ``L`` always holds U-layer ids of the *original* graph and ``R`` the
    V-layer ids, regardless of which layer the search anchors on.
    """
    engine = resolve_backend(backend)
    inputs = prepare_device_inputs(graph, query, layer)
    g, p, q, index = inputs.graph, inputs.p, inputs.q, inputs.index
    anchored = inputs.anchored_layer
    produced = 0

    def emit(path: list[int], cr: np.ndarray):
        nonlocal produced
        left = tuple(sorted(path))
        for right in combinations(map(int, cr), q):
            if limit is not None and produced >= limit:
                return
            produced += 1
            if anchored == LAYER_U:
                yield left, right
            else:
                yield right, left

    def rec(path: list[int], cl: np.ndarray, cr: np.ndarray):
        for u in cl:
            if limit is not None and produced >= limit:
                return
            u = int(u)
            new_cr = engine.merge(cr, g.neighbors(LAYER_U, u))
            if len(new_cr) < q:
                continue
            path.append(u)
            if len(path) == p:
                yield from emit(path, new_cr)
            else:
                new_cl = engine.merge(cl, index.of(u))
                if len(new_cl) >= p - len(path):
                    yield from rec(path, new_cl, new_cr)
            path.pop()

    for root in inputs.roots.tolist():
        if limit is not None and produced >= limit:
            return
        cr0 = g.neighbors(LAYER_U, root)
        if p == 1:
            yield from emit([root], cr0)
        else:
            yield from rec([root], index.of(root), cr0)

"""The Basic backtracking model of §III-A, kept as the pedagogical baseline.

Differences from BCL: no degree-based layer selection (always anchors on
U) and no Definition-2 priority — candidates are simply restricted to
larger vertex ids.  The paper's literal Basic revisits permutations of the
same L (Example 3 finds a duplicate leaf); a *counting* implementation
must not double count, so we keep the id-order restriction, which is the
minimal fix and leaves Basic's inefficiencies (unselected layer, unordered
skewed workloads) intact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.bcl import count_root
from repro.core.counts import BicliqueQuery, CountResult
from repro.engine.base import KernelBackend, resolve_backend
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.twohop import build_two_hop_index
from repro.plan.registry import MethodSpec, register_method

__all__ = ["basic_count"]


def basic_count(graph: BipartiteGraph, query: BicliqueQuery,
                backend: KernelBackend | str | None = None,
                workers: int | None = None,
                session=None) -> CountResult:
    """Count (p, q)-bicliques with the Basic model (anchor fixed on U).

    With ``workers=N`` (on ``native``) the root set is sharded over N
    forked children; the count is identical for any worker count.
    ``session=`` (a :class:`repro.query.GraphSession`) serves the
    id-ordered two-hop index from the per-graph caches.
    """
    engine = resolve_backend(backend, workers=workers)
    start = time.perf_counter()
    p, q = query.p, query.q
    if session is not None:
        session.check_owns(graph)
        index = session.id_order_index(q)
    else:
        ids = np.arange(graph.num_u, dtype=np.int64)
        index = build_two_hop_index(graph, LAYER_U, q, min_priority_rank=ids)

    def count_chunk(roots) -> int:
        return sum(count_root(graph, index, int(r), p, q, engine)
                   for r in roots)

    weights = np.diff(index.offsets).astype(np.float64)
    total = sum(part for _, part in
                engine.map_shards(count_chunk, graph.num_u,
                                  weights=weights))

    return CountResult(
        algorithm="Basic",
        query=query,
        count=total,
        wall_seconds=time.perf_counter() - start,
        anchored_layer=LAYER_U,
        backend=engine.name,
        backend_instrumented=engine.instrumented,
    )


register_method(MethodSpec(
    name="Basic",
    runner=basic_count,
    accepts=("backend", "workers", "session"),
    supports_layer=False,
    prepared_kinds=("wedges", "two_hop_id"),
    # unpriced: Basic searches in id order, which the priority-order
    # work bound does not track
    order=10,
    summary="id-ordered backtracking baseline, anchored on U (§III-A)",
))

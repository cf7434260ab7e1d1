"""Search-tree profiler: per-depth statistics of the biclique search.

§IV's hybrid-exploration argument rests on an empirical claim: "as the
search level increases, the value of m (= |CL[l-1]|) typically
decreases", which is why deep levels starve warps under pure DFS.  This
profiler runs the exact duplicate-free search once and records, per
depth: node counts, candidate-set sizes, and pruning outcomes — the
numbers that justify both the hybrid strategy and the batching formula.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs
from repro.engine.base import KernelBackend, resolve_backend
from repro.graph.bipartite import BipartiteGraph, LAYER_U

__all__ = ["LevelStats", "SearchTreeProfile", "profile_search"]


@dataclass
class LevelStats:
    """Aggregates for one search depth (depth = |L| after extension)."""

    depth: int
    nodes: int = 0                 # nodes expanded at this depth
    pruned_cr: int = 0             # children cut by |CR| < q
    pruned_cl: int = 0             # children cut by |CL| too small
    sum_cl: int = 0                # Σ |CL| over surviving nodes
    sum_cr: int = 0                # Σ |CR| over surviving nodes
    leaves: int = 0                # nodes that completed a biclique set

    @property
    def mean_cl(self) -> float:
        return self.sum_cl / self.nodes if self.nodes else 0.0

    @property
    def mean_cr(self) -> float:
        return self.sum_cr / self.nodes if self.nodes else 0.0


@dataclass
class SearchTreeProfile:
    """Whole-search profile: one LevelStats per depth, plus totals."""

    query: BicliqueQuery
    levels: list[LevelStats] = field(default_factory=list)
    roots: int = 0
    wall_seconds: float = 0.0

    def level(self, depth: int) -> LevelStats:
        while len(self.levels) <= depth:
            self.levels.append(LevelStats(depth=len(self.levels)))
        return self.levels[depth]

    def mean_cl_by_depth(self) -> list[float]:
        return [lv.mean_cl for lv in self.levels]

    def total_nodes(self) -> int:
        return sum(lv.nodes for lv in self.levels)

    def shrink_ratio(self) -> float:
        """mean |CL| at the deepest populated level over the first level —
        the §IV 'm decreases with depth' quantity (< 1 when it holds)."""
        populated = [lv for lv in self.levels
                     if lv.nodes > 0 and lv.mean_cl > 0]
        if len(populated) < 2:
            return 1.0
        return populated[-1].mean_cl / populated[0].mean_cl


def profile_search(graph: BipartiteGraph, query: BicliqueQuery,
                   layer: str | None = None,
                   backend: KernelBackend | str | None = None
                   ) -> SearchTreeProfile:
    """Run the exact search once, collecting per-depth statistics."""
    engine = resolve_backend(backend)
    start = time.perf_counter()
    inputs = prepare_device_inputs(graph, query, layer)
    g, p, q, index = inputs.graph, inputs.p, inputs.q, inputs.index
    profile = SearchTreeProfile(query=query, roots=len(inputs.roots))

    def rec(depth: int, cl: np.ndarray, cr: np.ndarray) -> None:
        stats = profile.level(depth)
        stats.nodes += 1
        stats.sum_cl += len(cl)
        stats.sum_cr += len(cr)
        for u in cl:
            u = int(u)
            new_cr = engine.merge(cr, g.neighbors(LAYER_U, u))
            if len(new_cr) < q:
                stats.pruned_cr += 1
                continue
            if depth + 1 == p:
                profile.level(depth + 1).nodes += 1
                profile.level(depth + 1).sum_cr += len(new_cr)
                profile.level(depth + 1).leaves += 1
                continue
            new_cl = engine.merge(cl, index.of(u))
            if len(new_cl) < p - depth - 1:
                stats.pruned_cl += 1
                continue
            rec(depth + 1, new_cl, new_cr)

    for root in inputs.roots.tolist():
        cr0 = g.neighbors(LAYER_U, root)
        if p == 1:
            profile.level(1).nodes += 1
            profile.level(1).leaves += 1
            profile.level(1).sum_cr += len(cr0)
        else:
            rec(1, index.of(root), cr0)

    profile.wall_seconds = time.perf_counter() - start
    return profile

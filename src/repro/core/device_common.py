"""Root-set preparation, shared by every priority-ordered counter.

Algorithm 1's host-side recipe — anchor a layer, rank vertices by
Definition-2 priority, materialise the rank-filtered N2^q index and
filter unpromising roots — lives here once, in
:func:`prepare_device_inputs`.  BCL, the estimator, the partitioned
runner, local counts, the search profiler and enumeration all start
from its :class:`DeviceInputs`; GBL and GBC then hand each root's
search tree to a simulated thread block, which is what the
block-assignment and leaf-sum helpers below serve.
:func:`root_work_bound` reads the same arrays to bound each root's
search, which is what the planner prices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np

from repro.core.counts import BicliqueQuery, anchored_view
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.priority import priority_order_from_sizes, rank_from_order
from repro.graph.twohop import TwoHopIndex, build_wedge_index

__all__ = ["DeviceInputs", "prepare_device_inputs", "root_work_bound",
           "assign_roots_to_blocks", "comb_sum", "BALANCE_STRATEGIES"]

BALANCE_STRATEGIES = ("none", "pre", "runtime", "joint")


def comb_sum(sizes: np.ndarray, k: int) -> int:
    """Exact ``sum(C(s, k) for s in sizes)`` over a leaf frontier.

    The search-leaf contribution of a whole batch: sizes below ``k``
    contribute zero, exactly like the per-candidate ``comb`` calls they
    replace.  A small lookup table vectorises the common case; when the
    largest binomial could overflow a summed int64, the sum falls back
    to Python's arbitrary-precision integers — counts stay exact, which
    the golden harness asserts bit-for-bit.
    """
    if len(sizes) == 0:
        return 0
    top = int(sizes.max())
    if top < k:
        return 0
    table = [comb(s, k) for s in range(top + 1)]
    if table[top] < (1 << 62) // len(sizes):
        lut = np.asarray(table, dtype=np.int64)
        return int(lut[sizes].sum())
    return sum(table[s] for s in sizes.tolist())


@dataclass
class DeviceInputs:
    """Host-side preprocessing products of one (graph, query, layer)."""

    graph: BipartiteGraph          # anchored view (U is the selected layer)
    p: int
    q: int
    anchored_layer: str
    order: np.ndarray              # roots in priority order (high -> low)
    rank: np.ndarray
    index: TwoHopIndex             # rank-filtered N2^q
    roots: np.ndarray              # promising roots, in priority order
    prepare_seconds: float


def prepare_device_inputs(graph: BipartiteGraph, query: BicliqueQuery,
                          layer: str | None = None,
                          session=None) -> DeviceInputs:
    """Anchor, rank, build the 2-hop index and filter unpromising roots.

    Without a session one wedge pass over the anchored layer, keeping
    only the pairs with q or more common neighbours, yields the
    Definition-2 order, its rank and the rank-filtered N2^q index.  With
    a :class:`repro.query.GraphSession` the order/rank/index come from
    the session's caches (built at most once per anchored layer and k),
    derived the same way from its shared wedge pass, so the structures
    are identical either way; only the cheap per-query root filter runs
    every time.  A root is promising when its degree is at least q and,
    for p > 1, it has at least p - 1 lower-priority N2^q neighbours.
    """
    t0 = time.perf_counter()
    g, p, q, anchored = anchored_view(graph, query, layer)
    if session is not None:
        session.check_owns(graph)
        g = session.anchored(anchored)
        order = session.priority_order(anchored, q)
        rank = session.priority_rank(anchored, q)
        index = session.two_hop_index(anchored, q)
        session.stats.prepare_calls += 1
    else:
        wedges = build_wedge_index(g, LAYER_U, floor=q)
        order = priority_order_from_sizes(wedges.n2k_sizes(q))
        rank = rank_from_order(order)
        index = wedges.two_hop_index(q, min_priority_rank=rank)
    keep = g.degrees(LAYER_U)[order] >= q
    if p > 1:
        keep &= np.diff(index.offsets)[order] >= p - 1
    return DeviceInputs(
        graph=g, p=p, q=q, anchored_layer=anchored,
        order=order, rank=rank, index=index,
        roots=order[keep].astype(np.int64, copy=False),
        prepare_seconds=time.perf_counter() - t0,
    )


def root_work_bound(inputs: DeviceInputs) -> np.ndarray:
    """Per-root work bound ``deg(r) * C(|N2^q(r)|, p - 1)`` over
    ``inputs.roots``, as float64.

    A root's search picks its p - 1 partners from its N2^q row and
    intersects their neighbourhoods with its own, so this bounds the
    candidate sets it can touch.  It reads only the arrays
    :func:`prepare_device_inputs` already returned, in one vectorised
    pass, with ``p`` and ``q`` of the anchored view (they swap when the
    anchor does).  A float binomial is exact enough for a price.
    """
    roots = inputs.roots
    sizes = np.diff(inputs.index.offsets)[roots].astype(np.float64)
    bound = inputs.graph.degrees(LAYER_U)[roots].astype(np.float64)
    # C(n, k) as the running product of (n - i) / (i + 1): a factor hits
    # zero when n < k, which is the binomial's value there
    for i in range(inputs.p - 1):
        bound *= np.maximum(sizes - i, 0.0) / (i + 1)
    return bound


def assign_roots_to_blocks(roots: np.ndarray,
                           weights: np.ndarray,
                           num_blocks: int,
                           strategy: str) -> list[list[int]]:
    """Distribute root indices (positions into ``roots``) over blocks.

    * ``none`` / ``runtime`` — contiguous equal-count chunks in priority
      order (the naive split; ``runtime`` later adds stealing on top).
    * ``pre`` / ``joint`` — the paper's pre-runtime edge-oriented policy:
      greedy weighted assignment (weight = the root's number of
      second-level search-tree vertices) to the currently lightest block,
      heaviest roots first.
    * ``interleave`` — GBL's ``i += gridDim`` striding (§III-B).
    """
    from repro.balance.preruntime import (
        contiguous_split,
        interleaved_split,
        weighted_greedy_split,
    )

    n = len(roots)
    if n == 0:
        return [[] for _ in range(num_blocks)]
    if strategy in ("none", "runtime"):
        return contiguous_split(n, num_blocks)
    if strategy == "interleave":
        return interleaved_split(n, num_blocks)
    if strategy in ("pre", "joint"):
        return weighted_greedy_split(np.asarray(weights), num_blocks)
    raise ValueError(f"unknown balance strategy {strategy!r}; "
                     f"expected one of {BALANCE_STRATEGIES} or 'interleave'")

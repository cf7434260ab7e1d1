"""Shard planning and multi-process execution of per-root work.

The unit of parallel work in every counter is one root vertex's search
tree (the same unit the simulated device assigns to a thread block and
BCPar assigns to a partition).  This module cuts a list of such units
into at most one *shard* per worker with the Table IV pre-runtime
splitters — :func:`weighted_greedy_split`, the paper's edge-oriented LPT
policy, when the caller supplies per-item weights, and
:func:`contiguous_split` otherwise — and runs a caller-supplied chunk
function over the shards in a ``multiprocessing.Pool`` forked for the
call.  :class:`repro.engine.native.NativeBackend` with ``workers=N``
runs every counter's root loop through it.  The children inherit the
chunk function, closures over the graph/index/HTB structures
included, through the fork, so only shard ids and results cross the
process boundary.  Where ``fork`` is
unavailable (or inside a daemonic worker) the shards run in the calling
process — same results, no speedup.

Determinism contract: shard contents depend only on ``(num_items,
workers, weights)``, never on scheduling order, and :func:`run_sharded`
returns results keyed by the original item indices — so any merge that
is per-item (scatter by index) or commutative-associative over exact
values (integer sums, maxima) reproduces the serial result bit for bit.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.balance.preruntime import contiguous_split, weighted_greedy_split
from repro.errors import QueryError
from repro.obs import trace as _trace

__all__ = ["ShardPlan", "plan_shards", "run_sharded", "fork_available"]


def fork_available() -> bool:
    """Whether this process may fork worker children: POSIX ``fork``
    exists and the process is not itself a daemonic child (which may
    not spawn children)."""
    if "fork" not in mp.get_all_start_methods():
        return False  # pragma: no cover - non-POSIX platforms
    return not mp.current_process().daemon


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of item indices to worker shards."""

    shards: tuple[tuple[int, ...], ...]
    workers: int

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def covered(self) -> list[int]:
        """All item indices in the plan, sorted (must be a permutation)."""
        return sorted(i for shard in self.shards for i in shard)


def plan_shards(num_items: int, workers: int,
                weights: np.ndarray | None = None) -> ShardPlan:
    """Cut ``num_items`` work units into at most ``workers`` shards.

    With ``weights`` (one per item) the weighted greedy LPT splitter
    balances the shards' total weight; without, the items are cut into
    contiguous ranges.
    """
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    if num_items <= 0:
        return ShardPlan((), workers)
    if weights is None:
        groups = contiguous_split(num_items, workers)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != num_items:
            raise QueryError(f"got {len(weights)} weights for "
                             f"{num_items} items")
        groups = weighted_greedy_split(weights, workers)
    shards = tuple(tuple(int(i) for i in g) for g in groups if g)
    return ShardPlan(shards, workers)


# ``Pool.map`` pickles its callable, which rules out the closures the
# algorithms naturally build over their graph/index structures.  Instead
# the (fn, shards) pair rides into each worker as the pool initializer's
# argument — under the fork start method initargs are inherited through
# the fork, never pickled — so the only task payload on the wire is a
# shard id, and concurrent pools never see each other's state.
_FORK_STATE: tuple[Callable[[Sequence[int]], Any],
                   tuple[tuple[int, ...], ...]] | None = None


def _init_worker(state) -> None:
    global _FORK_STATE
    _FORK_STATE = state


def _run_shard(shard_id: int) -> tuple[Any, dict | None]:
    """``(fn's result, kernel tallies)``; the tallies are None unless
    tracing is on, since the child's spans never reach the parent."""
    fn, shards = _FORK_STATE
    if not _trace.enabled:
        return fn(shards[shard_id]), None
    with _trace.kernel_tallies() as tallies:
        result = fn(shards[shard_id])
    return result, tallies


def run_sharded(fn: Callable[[Sequence[int]], Any],
                num_items: int, *,
                workers: int,
                weights: np.ndarray | None = None
                ) -> list[tuple[tuple[int, ...], Any]]:
    """Run ``fn(item_indices)`` over shards, in worker processes.

    Returns ``[(item_indices, result), ...]`` in shard order — a
    deterministic order independent of which worker finished first.
    ``fn`` may be any callable (closures included); it executes in a
    forked child and its return value must be picklable.  Under
    tracing, each child's kernel tallies are added to the caller's open
    span, as if ``fn`` had run in-process.  An exception
    ``fn`` raises propagates to the caller.  With one worker, a single
    shard, or no ``fork`` support, everything runs in the calling
    process.
    """
    shards = plan_shards(num_items, workers, weights).shards
    if workers <= 1 or len(shards) <= 1 or not fork_available():
        return [(shard, fn(shard)) for shard in shards]
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=len(shards), initializer=_init_worker,
                  initargs=((fn, shards),)) as pool:
        outcomes = pool.map(_run_shard, range(len(shards)), chunksize=1)
    for _, tallies in outcomes:
        if tallies:
            _trace.add_tallies(tallies)
    return [(shard, result) for shard, (result, _) in zip(shards, outcomes)]

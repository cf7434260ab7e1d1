"""The sharded multi-process execution engine.

:class:`ParallelBackend` is the third registry engine (``"par"``): it
shards the root set across ``workers`` forked processes, each executing
the uninstrumented :class:`~repro.engine.fast.FastBackend` kernels, and
merges the per-shard results deterministically.  It does so by
overriding :meth:`~repro.engine.base.KernelBackend.map_shards`, the call
every counter already makes on every engine: each worker gets
one shard, placed by the weighted-greedy LPT splitter of
:mod:`repro.balance` over the per-root weights the counters supply (see
:mod:`repro.parallel.sharding`).

Counts are bit-identical to a serial ``fast`` run regardless of worker
count or scheduling order: every root's search tree is evaluated
exactly as the serial engine would, and the merge is either a scatter
by original root index or an exact integer sum / maximum.  Like the
fast engine, ``par`` is uninstrumented — device metrics stay zero.

As a :class:`KernelBackend` its four primitives simply delegate to an
inner fast engine, so code paths without a sharded driver (enumeration,
single intersections) still work — serially — when handed ``"par"``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.base import KernelBackend
from repro.engine.fast import FastBackend
from repro.errors import QueryError
from repro.gpu.metrics import KernelMetrics
from repro.parallel.sharding import default_workers, run_sharded

__all__ = ["ParallelBackend"]


class ParallelBackend(KernelBackend):
    """Root-set sharding over forked workers, fast kernels inside."""

    name = "par"
    instrumented = False

    def __init__(self, workers: int | None = None) -> None:
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self._inner = FastBackend()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelBackend(workers={self.workers})"

    # -- shard orchestration -------------------------------------------
    def map_shards(self, fn: Callable[[Sequence[int]], Any],
                   num_items: int,
                   weights: np.ndarray | None = None
                   ) -> list[tuple[tuple[int, ...], Any]]:
        """Run ``fn(item_indices)`` over shards of ``range(num_items)``.

        Returns ``[(item_indices, result), ...]`` in deterministic shard
        order; see :func:`repro.parallel.sharding.run_sharded`.  This
        overrides the one-shard default every engine has: the counters
        call it with a closure over their prepared inputs (forked
        workers inherit them), whatever the engine.
        """
        return run_sharded(fn, num_items, workers=self.workers,
                           weights=weights)

    # -- kernel primitives: delegate to the fast engine ----------------
    def merge(self, a: np.ndarray, b: np.ndarray,
              comparisons: list[int] | None = None) -> np.ndarray:
        return self._inner.merge(a, b, comparisons)

    def intersect(self, keys: np.ndarray, lst: np.ndarray,
                  metrics: KernelMetrics, *,
                  warps: int = 1, base_word: int = 0,
                  record_slots: bool = True) -> np.ndarray:
        return self._inner.merge(keys, lst)

    def membership(self, keys: np.ndarray, lst: np.ndarray) -> np.ndarray:
        return self._inner.membership(keys, lst)

    def bitmap_intersect(self, keys, lst, metrics: KernelMetrics, *,
                         warps: int = 1, base_word: int = 0,
                         keys_in_shared: bool = True,
                         record_slots: bool = True):
        return self._inner.bitmap_intersect(keys, lst, metrics)

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

It subclasses :class:`~repro.engine.fast.FastBackend`, so its four
primitives are the fast kernels and code paths that do not shard
(enumeration, single intersections) still work — serially — when
handed ``"par"``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.fast import FastBackend
from repro.errors import QueryError
from repro.parallel.sharding import default_workers, run_sharded

__all__ = ["ParallelBackend"]


class ParallelBackend(FastBackend):
    """Root-set sharding over forked workers, fast kernels inside."""

    name = "par"
    instrumented = False

    def __init__(self, workers: int | None = None) -> None:
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")

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

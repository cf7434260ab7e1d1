"""BCLP — the multi-threaded CPU parallelisation of BCL [53].

The paper runs BCLP with 16 OS threads, each executing BCL on its share of
root vertices.  CPython's GIL makes a real thread pool meaningless for a
compute-bound reproduction, so BCLP is modelled the way the paper
describes it: per-root costs are measured once by the instrumented BCL
run, then list-scheduled onto T logical threads (each idle thread takes
the next unprocessed root, exactly the paper's distribution of
selected-layer vertices).  The reported ``wall_seconds`` is the schedule
makespan plus the sequential preprocessing — deterministic, and faithful
to the skew-limited scaling the paper observes.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core.bcl import SCALAR_RATES, bcl_per_root_profile
from repro.core.counts import BicliqueQuery, CountResult
from repro.engine.base import KernelBackend, resolve_backend
from repro.plan.registry import MethodSpec, register_method

__all__ = ["bclp_count", "schedule_makespan"]

DEFAULT_THREADS = 16


def schedule_makespan(costs: list[float], threads: int) -> float:
    """List-schedule costs in the given order over ``threads`` workers.

    Each worker takes the next root when free — the paper's dynamic
    distribution of vertices to CPU threads.
    """
    if not costs:
        return 0.0
    heap = [0.0] * min(threads, max(len(costs), 1))
    heapq.heapify(heap)
    for c in costs:
        t = heapq.heappop(heap)
        heapq.heappush(heap, t + c)
    return max(heap)


def bclp_count(graph, query: BicliqueQuery,
               threads: int = DEFAULT_THREADS,
               layer: str | None = None,
               backend: KernelBackend | str | None = None,
               workers: int | None = None,
               session=None) -> CountResult:
    """BCLP: BCL's per-root work list-scheduled over ``threads`` threads.

    ``threads`` is the *modelled* thread count of the paper's CPU
    parallelisation; ``workers`` (or ``backend="par"``) additionally runs
    the underlying per-root measurement over real worker processes.
    Counts are unchanged, but the per-root timings are then measured
    under multi-process contention, so the modelled timing figures
    (``wall_seconds``, ``sequential_seconds``, ``speedup_vs_sequential``)
    are only comparable between runs of the same mode — use a serial
    backend when reproducing the paper's BCLP timings.
    """
    engine = resolve_backend(backend, workers=workers)
    start = time.perf_counter()
    profile = bcl_per_root_profile(graph, query, layer, backend=engine,
                                   session=session)
    sequential = sum(profile.per_root_seconds)
    preprocessing = max(profile.seconds_total - sequential, 0.0)
    makespan = schedule_makespan(profile.per_root_seconds, threads)
    total = int(np.sum(np.asarray(profile.per_root_counts, dtype=object))) \
        if profile.per_root_counts else 0
    wall = time.perf_counter() - start
    return CountResult(
        algorithm="BCLP",
        query=query,
        count=total,
        wall_seconds=preprocessing + makespan,
        breakdown={
            "threads": float(threads),
            "sequential_seconds": sequential,
            "preprocessing_seconds": preprocessing,
            "makespan_seconds": makespan,
            "speedup_vs_sequential": (sequential / makespan) if makespan else 1.0,
        },
        extras={"measurement_wall_seconds": wall},
        backend=engine.name,
        backend_instrumented=engine.instrumented,
    )


register_method(MethodSpec(
    name="BCLP",
    runner=bclp_count,
    accepts=("threads", "layer", "backend", "workers", "session"),
    # its wall time is BCL's search plus the schedule, so BCL's rates
    rates=SCALAR_RATES,
    order=30,
    summary="BCL list-scheduled over modelled CPU threads (§III-A)",
))

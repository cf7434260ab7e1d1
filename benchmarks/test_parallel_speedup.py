"""Parallel- vs serial-fast wall-clock scaling on the medium graph.

The sharded engine's promise: counts bit-identical to a serial ``fast``
run, with wall-clock dropping as workers are added.  Measured on the
same 2k x 2k / 20k-edge power-law workload as the backend-speedup
benchmark, at (p, q) = (3, 3), over 1/2/4 worker processes, one
weighted-greedy (LPT) shard each.

The >= 1.5x-at-4-workers assertion needs hardware that can actually run
four processes at once; on smaller machines the benchmark still runs,
records the artifact, and then skips the bar.  Runs as part of the slow
benchmark suite (``pytest -m "" benchmarks``) or directly:
``python benchmarks/test_parallel_speedup.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import BicliqueQuery, ParallelBackend, bcl_count, power_law_bipartite

NUM_U = NUM_V = 2000
NUM_EDGES = 20000
QUERY = BicliqueQuery(3, 3)
WORKER_COUNTS = (1, 2, 4)
MIN_SPEEDUP_AT_4 = 1.5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _measure():
    graph = power_law_bipartite(NUM_U, NUM_V, NUM_EDGES, seed=42,
                                name="medium-pl")
    t0 = time.perf_counter()
    serial = bcl_count(graph, QUERY, backend="fast")
    serial_secs = time.perf_counter() - t0
    rows = [("fast", 0, serial.count, serial_secs, 1.0)]
    for workers in WORKER_COUNTS:
        t0 = time.perf_counter()
        par = bcl_count(graph, QUERY, backend=ParallelBackend(workers))
        secs = time.perf_counter() - t0
        rows.append((f"par/{workers}", workers, par.count, secs,
                     serial_secs / secs))
    return rows


def _render(rows) -> str:
    lines = [f"Parallel scaling — {NUM_U}x{NUM_V}, {NUM_EDGES} edges, "
             f"(p,q)={QUERY}, BCL, {_usable_cpus()} usable CPUs",
             f"{'engine':<8} {'count':>14} {'wall [s]':>9} "
             f"{'vs fast':>8}"]
    for name, _, count, secs, speedup in rows:
        lines.append(f"{name:<8} {count:>14} {secs:>9.2f} {speedup:>7.2f}x")
    return "\n".join(lines)


def test_parallel_speedup(save_artifact):
    rows = _measure()
    save_artifact("parallel_speedup", _render(rows))
    counts = {count for _, _, count, _, _ in rows}
    # bit-identical counts for every worker count is the hard guarantee
    assert len(counts) == 1, f"engines disagree: {counts}"
    cpus = _usable_cpus()
    if cpus < 4:
        pytest.skip(f"scaling bar needs >= 4 usable CPUs, have {cpus} "
                    "(counts verified, artifact recorded)")
    by_workers = {workers: speedup for _, workers, _, _, speedup in rows}
    assert by_workers[4] >= MIN_SPEEDUP_AT_4, (
        f"4-worker speedup {by_workers[4]:.2f}x below the "
        f"{MIN_SPEEDUP_AT_4}x bar")


if __name__ == "__main__":  # pragma: no cover - manual run
    print(_render(_measure()))

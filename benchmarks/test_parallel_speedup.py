"""``native`` forked over LPT root shards vs one ``native`` process.

``workers=N`` on ``native`` cuts the roots into N shards with the
paper's §V-C LPT split and runs each in a forked child.  Its promise:
counts bit-identical to one process, with wall-clock dropping as
workers are added.  Measured on the same 2k x 2k / 20k-edge power-law
workload as the backend-speedup benchmark, at (p, q) = (3, 3), over
1/2/4 workers:

* BCL (the scalar per-root recursion in every child) carries the bar:
  >= 1.5x over one process at 4 workers;
* GBC (the frontier in every child) is recorded with no bar, so the
  README's numbers come from this artifact.

The bar needs hardware that can actually run four processes at once;
on smaller machines the benchmark still runs, records the artifact, and
then skips the bar.  Runs as part of the slow benchmark suite
(``pytest -m "" benchmarks``) or directly:
``python benchmarks/test_parallel_speedup.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import (BicliqueQuery, NativeBackend, bcl_count, gbc_count,
                   power_law_bipartite)

NUM_U = NUM_V = 2000
NUM_EDGES = 20000
QUERY = BicliqueQuery(3, 3)
WORKER_COUNTS = (1, 2, 4)
MIN_SPEEDUP_AT_4 = 1.5
METHODS = {"BCL": bcl_count, "GBC": gbc_count}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _measure():
    """``(method, workers, count, seconds, speedup)`` rows; ``workers``
    0 is one process with no fork, the speedup's baseline."""
    graph = power_law_bipartite(NUM_U, NUM_V, NUM_EDGES, seed=42,
                                name="medium-pl")
    rows = []
    for method, count_fn in METHODS.items():
        # untimed: the first count of a process pays its cold heap,
        # which would otherwise land on the baseline row alone
        count_fn(graph, QUERY, backend=NativeBackend())
        baseline = None
        for workers in (None,) + WORKER_COUNTS:
            t0 = time.perf_counter()
            result = count_fn(graph, QUERY, backend=NativeBackend(workers))
            secs = time.perf_counter() - t0
            baseline = secs if baseline is None else baseline
            rows.append((method, workers or 0, result.count, secs,
                         baseline / secs))
    return rows


def _render(rows) -> str:
    lines = [f"native over LPT root shards — {NUM_U}x{NUM_V}, "
             f"{NUM_EDGES} edges, (p,q)={QUERY}, {_usable_cpus()} usable "
             f"CPUs",
             f"{'method':<6} {'workers':>7} {'count':>14} {'wall [s]':>9} "
             f"{'vs 1 proc':>9}"]
    for method, workers, count, secs, speedup in rows:
        label = str(workers) if workers else "-"
        lines.append(f"{method:<6} {label:>7} {count:>14} {secs:>9.2f} "
                     f"{speedup:>8.2f}x")
    return "\n".join(lines)


def test_parallel_speedup(save_artifact):
    rows = _measure()
    save_artifact("parallel_speedup", _render(rows))
    # bit-identical counts for every worker count is the hard guarantee
    for method in METHODS:
        counts = {count for m, _, count, _, _ in rows if m == method}
        assert len(counts) == 1, f"{method} shards disagree: {counts}"
    cpus = _usable_cpus()
    if cpus < 4:
        pytest.skip(f"scaling bar needs >= 4 usable CPUs, have {cpus} "
                    "(counts verified, artifact recorded)")
    bcl = {workers: speedup for method, workers, _, _, speedup in rows
           if method == "BCL"}
    assert bcl[4] >= MIN_SPEEDUP_AT_4, (
        f"BCL 4-worker speedup {bcl[4]:.2f}x below the "
        f"{MIN_SPEEDUP_AT_4}x bar")


if __name__ == "__main__":  # pragma: no cover - manual run
    print(_render(_measure()))

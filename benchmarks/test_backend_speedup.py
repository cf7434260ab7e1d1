"""Fast- vs simulated-backend wall-clock speedup on a medium graph.

The kernel-backend layer's promise: identical counts, with the fast
engine at least 3x quicker in wall-clock time because every piece of
instrumentation (transaction charging, comparison cells, slot
accounting, timers) is compiled out.  Measured on the ISSUE's medium
workload — a 2k x 2k, 20k-edge power-law bipartite graph at (p,q)=(3,3),
which holds ~1.3e9 bicliques (a uniform random graph of that density
holds none, so the skewed generator is the meaningful stand-in).

Runs as part of the slow benchmark suite (``pytest -m "" benchmarks``)
or directly: ``python benchmarks/test_backend_speedup.py``.
"""

from __future__ import annotations

import time

from repro import BicliqueQuery, bcl_count, gbc_count, power_law_bipartite

NUM_U = NUM_V = 2000
NUM_EDGES = 20000
QUERY = BicliqueQuery(3, 3)
MIN_GBC_SPEEDUP = 3.0


def _measure():
    graph = power_law_bipartite(NUM_U, NUM_V, NUM_EDGES, seed=42,
                                name="medium-pl")
    rows = []
    for name, fn in (("GBC", gbc_count), ("BCL", bcl_count)):
        t0 = time.perf_counter()
        sim = fn(graph, QUERY, backend="sim")
        sim_secs = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = fn(graph, QUERY, backend="fast")
        fast_secs = time.perf_counter() - t0
        rows.append((name, sim.count, fast.count, sim_secs, fast_secs))
    return rows


def _render(rows) -> str:
    lines = [f"Backend speedup — {NUM_U}x{NUM_V}, {NUM_EDGES} edges, "
             f"(p,q)={QUERY}",
             f"{'method':<6} {'count':>14} {'sim [s]':>9} "
             f"{'fast [s]':>9} {'speedup':>8}"]
    for name, sim_count, fast_count, sim_secs, fast_secs in rows:
        assert sim_count == fast_count
        lines.append(f"{name:<6} {sim_count:>14} {sim_secs:>9.2f} "
                     f"{fast_secs:>9.2f} {sim_secs / fast_secs:>7.1f}x")
    return "\n".join(lines)


def test_backend_speedup(save_artifact):
    rows = _measure()
    save_artifact("backend_speedup", _render(rows))
    for name, sim_count, fast_count, sim_secs, fast_secs in rows:
        # identical counts on the same graph is the hard guarantee
        assert sim_count == fast_count
        # the fast engine must never lose to the instrumented one
        assert fast_secs < sim_secs
    gbc_name, _, _, gbc_sim, gbc_fast = rows[0]
    assert gbc_name == "GBC"
    assert gbc_sim / gbc_fast >= MIN_GBC_SPEEDUP, (
        f"GBC fast-backend speedup {gbc_sim / gbc_fast:.2f}x "
        f"below the {MIN_GBC_SPEEDUP}x bar")


if __name__ == "__main__":  # pragma: no cover - manual run
    print(_render(_measure()))

"""Quickstart: count (p, q)-bicliques with GBC on the simulated device.

Run with::

    python examples/quickstart.py

Builds a small power-law bipartite graph, counts (3, 4)-bicliques with
the full GBC pipeline and with the CPU baseline BCL, verifies they agree,
and prints the device-model diagnostics the paper's evaluation revolves
around (memory transactions, thread utilisation, simulated runtime).
Every counter runs the ``native`` engine unless told otherwise, so the
example names ``backend="sim"`` wherever it reads those diagnostics.
"""

from repro import (
    BicliqueQuery,
    bcl_count,
    gbc_count,
    gbl_count,
    power_law_bipartite,
    rtx_3090,
)


def main() -> None:
    graph = power_law_bipartite(num_u=400, num_v=250, num_edges=1500,
                                seed=42, name="quickstart")
    query = BicliqueQuery(3, 4)
    spec = rtx_3090()

    print(f"graph: {graph}")
    print(f"query: (p, q) = {query}\n")

    cpu = bcl_count(graph, query, backend="sim")
    print(f"BCL (CPU state of the art): {cpu.count} bicliques "
          f"in {cpu.wall_seconds:.3f}s wall")
    print(f"  time in set intersections: "
          f"{cpu.breakdown['intersection_fraction'] * 100:.1f}%  "
          "(the bottleneck Fig. 1(b) motivates)")

    naive = gbl_count(graph, query, spec=spec, backend="sim")
    full = gbc_count(graph, query, spec=spec, backend="sim")
    assert cpu.count == naive.count == full.count, "counters disagree!"

    print(f"\nGBL (naive GPU port):  simulated {naive.device_seconds:.2e}s, "
          f"{naive.metrics.global_transactions} memory transactions")
    print(f"GBC (the paper's system): simulated {full.device_seconds:.2e}s, "
          f"{full.metrics.global_transactions} memory transactions")
    print(f"\nGBC vs GBL speedup (simulated): "
          f"{naive.device_seconds / full.device_seconds:.1f}x")
    print(f"transaction reduction from HTB: "
          f"{naive.metrics.global_transactions / max(full.metrics.global_transactions, 1):.1f}x")
    print(f"thread utilisation: GBL {naive.metrics.utilization * 100:.1f}% "
          f"-> GBC {full.metrics.utilization * 100:.1f}% (hybrid DFS-BFS)")

    # when only the count matters, drop the instrumented simulation: the
    # default engine, native, runs the same search as batch kernels
    native = gbc_count(graph, query)
    assert native.count == full.count
    print(f"\nGBC on the {native.backend} backend (the default): "
          f"{native.count} bicliques in {native.wall_seconds:.3f}s wall "
          f"(sim-backend host time was {full.wall_seconds:.3f}s)")


if __name__ == "__main__":
    main()

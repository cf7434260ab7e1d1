"""The ``serve-dist-bench`` harness: a topology × size throughput grid.

The distributed tier's headline artifact (``BENCH_dist.json``) follows
the run-table shape of topology-scaling benchmarks: one row per
**topology × graph size × repetition**, each row a full zipf workload
driven through a fresh :class:`~repro.dist.DistRouter` at that worker
count, reporting throughput, p95 latency and failure rate.  The
1-worker topology exercises the router's in-process fallback — which
*is* the single-process :class:`~repro.service.scheduler.Scheduler` —
so per-size speedups read directly off the grid as
``qps(N workers) / qps(1 worker)``.

Correctness rides along exactly as in ``serve-bench``: every distinct
served ``(graph, p, q)`` is re-counted with a direct call
(:func:`~repro.service.bench.verify_served`) and the artifact carries
the mismatches (which must be empty), plus a partitioned-tier check
that the fan-out/merge path equals whole-graph counts bit for bit.
"""

from __future__ import annotations

import time

from repro.core.counts import BicliqueQuery
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.parallel.sharding import default_workers
from repro.service.bench import verify_served
from repro.service.scheduler import SchedulerConfig
from repro.service.workload import WorkloadSpec, run_workload
from repro.dist.router import DistRouter

__all__ = ["GRID_SIZES", "dist_bench", "make_grid_graphs"]

#: graph-size tiers of the grid: (U, V, edges) per pooled graph role
GRID_SIZES: dict[str, dict[str, tuple[int, int, int]]] = {
    "small": {"hot": (300, 250, 1400), "warm": (250, 200, 1100),
              "cold": (220, 180, 900)},
    "medium": {"hot": (600, 500, 2800), "warm": (500, 400, 2200),
               "cold": (420, 350, 1800)},
}


def make_grid_graphs(size: str) -> dict:
    """The three-graph pool (hot/warm/cold) for one size tier."""
    shapes = GRID_SIZES[size]
    hu, hv, he = shapes["hot"]
    wu, wv, we = shapes["warm"]
    cu, cv, ce = shapes["cold"]
    return {
        "hot": power_law_bipartite(hu, hv, he, seed=21,
                                   name=f"hot-{size}"),
        "warm": random_bipartite(wu, wv, we, seed=22,
                                 name=f"warm-{size}"),
        "cold": power_law_bipartite(cu, cv, ce, seed=23,
                                    name=f"cold-{size}"),
    }


def _run_one(graphs: dict, topology: int, spec: WorkloadSpec, *,
             replication: int, backend: str, method: str,
             verify: bool) -> dict:
    config = SchedulerConfig(max_batch=64, workers=max(2, topology),
                             backend=backend, method=method)
    router = DistRouter(graphs, workers=topology,
                        replication=replication, hot=("hot",),
                        config=config)
    try:
        result = run_workload(router, spec)
        snap = router.cluster_snapshot()
    finally:
        router.close()
    telemetry = snap["router"]
    issued = max(result.issued, 1)
    failures = result.rejected + result.expired + result.failed
    mismatches = verify_served(graphs, result, backend) if verify \
        else []
    return {
        "topology": topology,
        "distributed": snap["mode"] == "dist",
        "completed": result.completed,
        "issued": result.issued,
        "rejected": result.rejected,
        "expired": result.expired,
        "failed": result.failed,
        "throughput_qps": result.throughput_qps,
        "p50_ms": telemetry["latency_ms"]["p50"],
        "p95_ms": telemetry["latency_ms"]["p95"],
        "failure_rate": failures / issued,
        "cluster_completed": snap["cluster"]["completed"],
        "mismatches": mismatches,
    }


def _partitioned_check(size: str, workers: int, backend: str) -> dict:
    """Fan-out/merge exactness of the partitioned tier at this size."""
    from repro.bench.runner import run_method

    graphs = make_grid_graphs(size)
    shapes = [(2, 2), (2, 3)]
    router = DistRouter(graphs, workers=workers, partitioned=("hot",),
                        backend=backend)
    try:
        served = {f"{p}x{q}": router.count("hot", p, q).count
                  for p, q in shapes}
    finally:
        router.close()
    direct = {f"{p}x{q}": run_method("GBC", graphs["hot"],
                                     BicliqueQuery(p, q),
                                     backend=backend).count
              for p, q in shapes}
    return {"graph_size": size, "workers": workers,
            "served": served, "direct": direct,
            "exact": served == direct}


def dist_bench(*, topologies=(1, 2, 4), sizes=("small", "medium"),
               repetitions: int = 2, num_queries: int = 160,
               clients: int = 8, zipf_s: float = 1.1,
               backend: str = "fast", method: str = "GBC",
               replication: int = 2, seed: int = 17,
               verify: bool = True) -> dict:
    """Run the topology × size grid; returns the artifact dict."""
    topologies = sorted(set(int(t) for t in topologies))
    if not topologies or topologies[0] < 1:
        raise ValueError(f"topologies must be >= 1, got {topologies}")
    rows: list[dict] = []
    for size in sizes:
        for topology in topologies:
            graphs = make_grid_graphs(size)
            for rep in range(repetitions):
                spec = WorkloadSpec(
                    graphs=("hot", "warm", "cold"),
                    shapes=((2, 2), (2, 3), (3, 3), (3, 4)),
                    num_queries=num_queries, clients=clients,
                    zipf_s=zipf_s, method=method,
                    seed=seed + 97 * rep)
                row = _run_one(graphs, topology, spec,
                               replication=replication,
                               backend=backend, method=method,
                               verify=verify)
                row["graph_size"] = size
                row["repetition"] = rep
                rows.append(row)

    throughput: dict[str, dict[str, float]] = {}
    for size in sizes:
        throughput[size] = {}
        for topology in topologies:
            qps = [r["throughput_qps"] for r in rows
                   if r["graph_size"] == size
                   and r["topology"] == topology]
            throughput[size][str(topology)] = sum(qps) / len(qps)
    top = str(topologies[-1])
    speedups = {size: (throughput[size][top] / throughput[size]["1"])
                if "1" in throughput[size]
                and throughput[size]["1"] > 0 else 0.0
                for size in sizes}
    partitioned = _partitioned_check(
        sizes[0], max(topologies[-1], 2), backend)
    return {
        "kind": "dist_bench",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": {"usable_cpus": default_workers()},
        "workload": {"num_queries": num_queries, "clients": clients,
                     "zipf_s": zipf_s, "method": method,
                     "backend": backend, "replication": replication,
                     "seed": seed,
                     "shapes": [[2, 2], [2, 3], [3, 3], [3, 4]]},
        "topologies": topologies,
        "sizes": list(sizes),
        "repetitions": repetitions,
        "rows": rows,
        "throughput_qps": throughput,
        "speedup_vs_1w": speedups,
        "max_speedup": max(speedups.values()) if speedups else 0.0,
        "partitioned": partitioned,
        "verified": verify,
    }

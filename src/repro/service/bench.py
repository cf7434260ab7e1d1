"""The ``serve-bench`` harness: serving throughput vs a naive loop.

Measures the same declarative workload two ways:

* **naive** — one thread, one request at a time, no shared state: every
  query pays the full prepare-and-count cost through
  :func:`repro.bench.runner.run_method`, exactly how a caller drove the
  repo before the service layer existed;
* **served** — the same stream through a
  :class:`~repro.service.scheduler.Scheduler` over a
  :class:`~repro.service.pool.SessionPool`, with batching and
  shared prepared state.

Every distinct ``(graph, p, q)`` the service answered is then re-counted
with a direct single-query call and compared bit-for-bit — the artifact
reports ``mismatches`` (which must be zero) alongside the speedup, so a
throughput win can never hide a correctness regression.  The resulting
dict is JSON-serialisable and is what the CLI writes as
``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.counts import BicliqueQuery
from repro.graph.bipartite import BipartiteGraph
from repro.parallel.sharding import default_workers
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.workload import (WorkloadResult, WorkloadSpec,
                                    generate_requests, run_workload)

__all__ = ["serve_bench", "verify_served", "write_artifact"]


def _method_resolver(graphs: dict[str, BipartiteGraph], method: str,
                     backend: str):
    """A ``(graph name, p, q) -> concrete method`` function.

    Explicit methods pass through; ``"auto"`` is resolved through the
    planner once per (graph, shape) and memoised — under the same
    ``backend`` the requests execute on, so the choice matches what the
    served path's pooled sessions pick — and the naive baseline and
    verification oracle then time *counting*, not repeated planning
    probes.
    """
    if method != "auto":
        return lambda name, p, q: method
    from repro.plan import plan_query

    cache: dict[tuple[str, int, int], str] = {}

    def resolve(name: str, p: int, q: int) -> str:
        key = (name, p, q)
        if key not in cache:
            cache[key] = plan_query(graphs[name], BicliqueQuery(p, q),
                                    method="auto", backend=backend).method
        return cache[key]

    return resolve


def verify_served(graphs: dict[str, BipartiteGraph],
                  result: WorkloadResult,
                  backend: str = "fast") -> list[dict]:
    """Re-count every distinct served ``(graph, p, q)`` directly and
    return the mismatches (empty list = all bit-identical).

    The direct run uses a fresh call with no session, cache or
    batching — the strongest available oracle for the served answers.
    """
    from repro.bench.runner import run_method

    resolve = _method_resolver(graphs, result.spec.method, backend)
    served_counts: dict[tuple[str, int, int], set[int]] = {}
    served_approx: dict[tuple[str, int, int], list] = {}
    for s in result.served:
        if s.ci95 is None:
            served_counts.setdefault((s.graph, s.p, s.q), set()).add(s.count)
        else:
            served_approx.setdefault((s.graph, s.p, s.q), []).append(s)
    mismatches = []
    directs: dict[tuple[str, int, int], int] = {}
    for key in sorted(set(served_counts) | set(served_approx)):
        name, p, q = key
        directs[key] = run_method(resolve(name, p, q), graphs[name],
                                  BicliqueQuery(p, q), backend=backend).count
    for (name, p, q), counts in sorted(served_counts.items()):
        direct = directs[(name, p, q)]
        if counts != {direct}:
            mismatches.append({"graph": name, "p": p, "q": q,
                               "served": sorted(counts), "direct": direct})
    # sampling-tier answers are held to the precision they reported:
    # the estimate must land within its own ci95 of the exact count
    # (+0.5 for the integer rounding of the reported count)
    for (name, p, q), items in sorted(served_approx.items()):
        direct = directs[(name, p, q)]
        for s in items:
            if abs(s.count - direct) > s.ci95 + 0.5:
                mismatches.append({"graph": name, "p": p, "q": q,
                                   "served": s.count, "ci95": s.ci95,
                                   "direct": direct, "tier": "approx"})
    return mismatches


def _naive_loop(graphs: dict[str, BipartiteGraph], spec: WorkloadSpec,
                n: int, backend: str) -> dict:
    """Time ``n`` requests of the spec's stream, one direct call each."""
    from repro.bench.runner import run_method

    resolve = _method_resolver(graphs, spec.method, backend)
    requests = generate_requests(spec, n)
    t0 = time.monotonic()
    for name, p, q in requests:
        run_method(resolve(name, p, q), graphs[name], BicliqueQuery(p, q),
                   backend=backend)
    seconds = time.monotonic() - t0
    return {"requests": len(requests), "wall_seconds": seconds,
            "throughput_qps": len(requests) / seconds if seconds > 0
                              else 0.0}


def serve_bench(graphs: dict[str, BipartiteGraph],
                spec: WorkloadSpec, *,
                config: SchedulerConfig | None = None,
                max_sessions: int | None = None,
                max_bytes: int | None = None,
                naive_limit: int | None = 100,
                verify: bool = True) -> dict:
    """Run the full serving benchmark; returns the artifact dict.

    ``naive_limit`` caps the single-threaded baseline's request count
    (it exists to bound benchmark wall time; throughput is a rate, so
    the comparison is unaffected).  Set ``verify=False`` to skip the
    direct-recount oracle when only throughput is of interest.
    """
    config = config or SchedulerConfig()
    pool = SessionPool(
        max_sessions=len(graphs) if max_sessions is None else max_sessions,
        max_bytes=max_bytes)
    for name, graph in graphs.items():
        pool.register(name, graph)
    scheduler = Scheduler(pool, config=config)
    try:
        result = run_workload(scheduler, spec)
    finally:
        scheduler.close()
    telemetry = scheduler.telemetry.snapshot()

    naive_n = result.completed if naive_limit is None \
        else min(result.completed, naive_limit)
    naive = _naive_loop(graphs, spec, max(naive_n, 1), config.backend)

    mismatches = verify_served(graphs, result, config.backend) \
        if verify else None
    served_qps = result.throughput_qps
    return {
        "kind": "serve_bench",
        "host": {"usable_cpus": default_workers()},
        "spec": spec.as_dict(),
        "scheduler": {
            "max_batch": config.max_batch,
            "max_pending": config.max_pending,
            "workers": config.workers,
            "backend": config.backend,
            "accuracy": config.accuracy,
        },
        "pool": pool.snapshot(),
        "served": result.as_dict(),
        "telemetry": telemetry,
        "naive": naive,
        "speedup_vs_naive": (served_qps / naive["throughput_qps"])
                            if naive["throughput_qps"] > 0 else 0.0,
        "verified": verify,
        "mismatches": mismatches if mismatches is not None else "skipped",
    }


def write_artifact(artifact: dict, path: str | Path) -> Path:
    """Write the artifact as pretty JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path

"""repro.service — the concurrent query-serving subsystem.

The layer that turns the library into a service: many clients, many
graphs, one process.  Four parts, composed top-down:

* :class:`~repro.service.scheduler.Scheduler` — accepts concurrent
  ``(graph, method, p, q)`` requests (thread-safe :meth:`submit`
  returning futures, plus an asyncio front-end), hands each free worker
  the oldest queued request together with the same-graph requests
  queued behind it, and applies admission control (bounded queue ->
  :class:`~repro.errors.QueueFullError`) and per-request deadlines.
* :class:`~repro.service.pool.SessionPool` — the bounded LRU pool of
  prepared :class:`~repro.query.GraphSession` state behind the
  scheduler, with entry/memory budgets and transparent rebuild after
  eviction.
* :class:`~repro.service.telemetry.Telemetry` — throughput, queue
  depth, batch-size distribution and latency percentiles, as a JSON
  snapshot.
* :mod:`~repro.service.workload` / :mod:`~repro.service.bench` — the
  declarative workload generator (zipf graph popularity, mixed query
  shapes, open/closed loop) and the ``serve-bench`` harness comparing
  served throughput against a naive one-at-a-time loop with a
  bit-identical correctness oracle.

>>> from repro import random_bipartite
>>> from repro.service import Scheduler, SessionPool
>>> pool = SessionPool(max_sessions=2)
>>> pool.register("demo", random_bipartite(30, 20, 200, seed=7))
>>> with Scheduler(pool) as sched:
...     sched.count("demo", 2, 3).count
528
"""

from repro.service.bench import serve_bench, verify_served, write_artifact
from repro.service.mutate import edit_stream, mutate_bench
from repro.service.pool import PoolStats, SessionPool, graph_resident_bytes
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.telemetry import Telemetry, percentile
from repro.service.workload import (ServedQuery, WorkloadResult,
                                    WorkloadSpec, generate_requests,
                                    run_workload)

__all__ = [
    "Scheduler", "SchedulerConfig",
    "SessionPool", "PoolStats", "graph_resident_bytes",
    "Telemetry", "percentile",
    "WorkloadSpec", "WorkloadResult", "ServedQuery",
    "generate_requests", "run_workload",
    "serve_bench", "verify_served", "write_artifact",
    "mutate_bench", "edit_stream",
]

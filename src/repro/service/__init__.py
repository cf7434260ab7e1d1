"""repro.service — the concurrent query-serving subsystem.

The layer that turns the library into a service: many clients, many
graphs, one process.  Three parts, composed top-down:

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

The repository benchmark (``repobench/``, gated by ``BENCHMARK.json``)
drives this layer end to end; it is not part of the package.

>>> from repro import random_bipartite
>>> from repro.service import Scheduler, SessionPool
>>> pool = SessionPool(max_sessions=2)
>>> pool.register("demo", random_bipartite(30, 20, 200, seed=7))
>>> with Scheduler(pool) as sched:
...     sched.count("demo", 2, 3).count
528
"""

from repro.service.pool import PoolStats, SessionPool, graph_resident_bytes
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.telemetry import Telemetry, percentile

__all__ = [
    "Scheduler", "SchedulerConfig",
    "SessionPool", "PoolStats", "graph_resident_bytes",
    "Telemetry", "percentile",
]

"""repro.dist — the multi-process serving tier (scale-out seam).

One :class:`~repro.dist.router.DistRouter` front-end (the same
batching :class:`~repro.service.scheduler.Scheduler` surface:
futures, admission control, deadlines) over N long-lived worker
processes, each owning a shard of the session pool:

* :mod:`~repro.dist.hashring` — consistent hashing on graph content
  fingerprints: deterministic placement, bounded key movement as the
  topology grows or shrinks, replica walks for zipf-hot graphs;
* :mod:`~repro.dist.worker` — the worker process: one thread with
  its own ``SessionPool`` + ``Telemetry`` + ``CostLedger``, answering
  batched request envelopes as it reads them from a pipe (fork-spawned
  once — never a fork per batch), plus per-shard partial counting for
  partitioned graphs;
* :mod:`~repro.dist.router` — routing, replication fan-out,
  partition-merge counting (bit-identical to single-process by the
  per-root decomposition), cross-worker telemetry/ledger aggregation,
  and graceful in-process fallback when ``fork`` is unavailable.

>>> from repro import random_bipartite
>>> from repro.dist import DistRouter
>>> g = random_bipartite(30, 20, 200, seed=7)
>>> with DistRouter({"demo": g}, workers=2) as router:
...     router.count("demo", 2, 3).count
528
"""

from repro.dist.hashring import HashRing
from repro.dist.router import DistRouter, RouteEntry, plan_routes
from repro.dist.worker import WorkerHandle

__all__ = ["DistRouter", "HashRing", "RouteEntry", "WorkerHandle",
           "plan_routes"]

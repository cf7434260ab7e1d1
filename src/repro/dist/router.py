"""The distributed serving router: one front-end, N worker processes.

:class:`DistRouter` subclasses the batching
:class:`~repro.service.scheduler.Scheduler`, so clients keep the exact
same surface — ``submit()`` futures, admission control
(:class:`~repro.errors.QueueFullError`), per-request deadlines,
graceful ``close()`` — while ``_execute`` ships each batch as
one envelope to a worker process instead of counting in-process.

Placement is decided once, at construction, by :func:`plan_routes` — a
pure function of the graph fingerprints and the topology, so any
router over the same graphs computes the same table:

* **single** graphs live on the one worker their fingerprint hashes to
  on the :class:`~repro.dist.hashring.HashRing`;
* **hot** graphs (named in ``hot=``) are replicated onto
  ``replication`` distinct ring successors, and each batch
  round-robins across the replicas — the pressure valve for zipf-head
  traffic;
* **partitioned** graphs (named in ``partitioned=``) have their U
  roots cut into one shard per worker by
  :func:`~repro.parallel.sharding.plan_shards` — the §V-C pre-runtime
  LPT split ``workers=N`` uses on ``native``, weighted by U degree; a
  query fans out to all owners, each counts its roots
  (:func:`~repro.partition.runner.count_roots`), and the router sums —
  bit-identical to a whole-graph count because the priority order
  charges every biclique to exactly one root.  Every worker inherits
  the whole graph through fork, so the split divides counting work,
  not memory.

When multiprocessing is unavailable (no ``fork``) or ``workers <= 1``
the router degrades to plain in-process serving over a local
:class:`~repro.service.pool.SessionPool` — identical results, one
WARNING log line — so callers never need a separate code path.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import ExitStack
from dataclasses import replace

from repro.core.counts import CountResult
from repro.errors import ServiceError
from repro.graph.bipartite import LAYER_U
from repro.graph.stats import graph_fingerprint
from repro.obs import trace as _trace
from repro.obs.ledger import CostLedger
from repro.obs.log import get_logger
from repro.parallel.sharding import fork_available, plan_shards
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.telemetry import merge_snapshots
from repro.dist.hashring import HashRing
from repro.dist.worker import (WorkerHandle, unpack_error,
                               unpack_result)

__all__ = ["DistRouter", "RouteEntry", "plan_routes"]

log = get_logger(__name__)


class RouteEntry:
    """Where one graph lives: kind, fingerprint and owning workers."""

    __slots__ = ("kind", "fingerprint", "owners", "_rr")

    def __init__(self, kind: str, fingerprint: str,
                 owners: tuple[int, ...]) -> None:
        self.kind = kind                # "single"|"replicated"|"partitioned"
        self.fingerprint = fingerprint
        self.owners = owners
        self._rr = itertools.count()

    def pick(self) -> int:
        """Round-robin across owners (replica load spreading)."""
        return self.owners[next(self._rr) % len(self.owners)]

    def describe(self) -> dict:
        return {"kind": self.kind, "fingerprint": self.fingerprint,
                "owners": list(self.owners)}


def plan_routes(fingerprints: dict[str, str], workers: int, *,
                replication: int = 2, hot=(), partitioned=(),
                vnodes: int = 64) -> dict[str, RouteEntry]:
    """The deterministic placement table for one topology.

    ``fingerprints`` maps graph name -> content fingerprint.  Routing
    hashes the *fingerprint* (not the name), so re-registering the same
    content under another name lands on the same worker, and a mutated
    graph naturally re-routes.
    """
    if workers < 1:
        raise ServiceError(f"workers must be >= 1, got {workers}")
    if replication < 1:
        raise ServiceError(
            f"replication must be >= 1, got {replication}")
    hot, partitioned = set(hot), set(partitioned)
    for name in sorted((hot | partitioned) - set(fingerprints)):
        raise ServiceError(f"hot/partitioned graph {name!r} is not "
                           f"registered")
    if hot & partitioned:
        both = sorted(hot & partitioned)
        raise ServiceError(f"graphs cannot be both hot and "
                           f"partitioned: {both}")
    ring = HashRing(range(workers), vnodes=vnodes)
    routes: dict[str, RouteEntry] = {}
    for name in sorted(fingerprints):
        fp = fingerprints[name]
        if name in partitioned:
            routes[name] = RouteEntry("partitioned", fp,
                                      tuple(range(workers)))
        elif name in hot and workers > 1:
            owners = ring.replicas(fp, min(replication, workers))
            routes[name] = RouteEntry("replicated", fp, tuple(owners))
        else:
            routes[name] = RouteEntry("single", fp, (ring.route(fp),))
    return routes


class DistRouter(Scheduler):
    """Serve pooled graphs across N long-lived worker processes.

    ``graphs`` maps name -> loaded
    :class:`~repro.graph.bipartite.BipartiteGraph`; the full topology
    is fixed at construction (workers fork here, inheriting their
    shard's arrays).  Scheduler tunables arrive exactly as on
    :class:`~repro.service.scheduler.Scheduler` (``config=`` or
    keyword overrides) and govern the router only: admission, batch
    size, deadline bookkeeping and its dispatch threads.  Each worker
    answers an envelope on the thread that reads its pipe, counting
    on the router's ``backend``.

    >>> from repro import random_bipartite
    >>> from repro.dist import DistRouter
    >>> g = random_bipartite(30, 20, 200, seed=7)
    >>> with DistRouter({"demo": g}, workers=2) as router:
    ...     router.count("demo", 2, 3).count
    528
    """

    def __init__(self, graphs: dict, *, workers: int = 2,
                 replication: int = 2, hot=(), partitioned=(),
                 vnodes: int = 64, ledger: CostLedger | None = None,
                 config: SchedulerConfig | None = None,
                 telemetry=None, **overrides) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self._graphs = dict(graphs)
        self.ledger = ledger or CostLedger()
        self.requested_workers = int(workers)
        self._handles: list[WorkerHandle] = []
        self._routes: dict[str, RouteEntry] = {}
        self._workers_closed = False
        self._harvest_lock = threading.Lock()

        cfg = config or SchedulerConfig(**overrides)
        if workers <= 1 or not fork_available():
            reason = ("workers=1" if workers <= 1
                      else "multiprocessing fork unavailable here")
            log.warning("dist: %s — falling back to in-process serving "
                        "(results identical, no scale-out)", reason)
            pool = SessionPool(max_sessions=max(len(self._graphs), 1),
                               ledger=self.ledger)
            for name, graph in self._graphs.items():
                pool.register(name, graph)
            super().__init__(pool, config=cfg, telemetry=telemetry,
                             ident="router")
            return

        fingerprints = {name: graph_fingerprint(g)
                        for name, g in self._graphs.items()}
        self._routes = plan_routes(fingerprints, workers,
                                   replication=replication, hot=hot,
                                   partitioned=partitioned,
                                   vnodes=vnodes)
        placements: list[dict] = [{} for _ in range(workers)]
        partition_roots: list[dict] = [{} for _ in range(workers)]
        for name, route in self._routes.items():
            if route.kind == "partitioned":
                graph = self._graphs[name]
                shards = plan_shards(graph.num_u, workers,
                                     weights=graph.degrees(LAYER_U)).shards
                for w, roots in enumerate(shards):
                    placements[w][name] = graph
                    partition_roots[w][name] = roots
                # a graph with fewer U vertices than workers cuts fewer
                # shards: only workers holding roots are fan-out owners
                self._routes[name] = RouteEntry(
                    "partitioned", route.fingerprint,
                    tuple(range(len(shards))))
            else:
                for w in route.owners:
                    placements[w][name] = self._graphs[name]

        # fork the workers BEFORE the base class starts router threads
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        self._handles = [
            WorkerHandle(ctx, w, placements[w], partition_roots[w],
                         cfg.backend)
            for w in range(workers)]
        log.info("dist: %d workers up (pids %s), %d graphs routed",
                 workers, [h.pid for h in self._handles],
                 len(self._routes))

        # the router's own pool stays empty in dist mode — sessions
        # live in the workers; the base class only uses it on the
        # in-process path.  One router thread per worker process at
        # least, so every worker can have an envelope in flight.
        super().__init__(SessionPool(max_sessions=1),
                         config=replace(cfg, workers=max(cfg.workers,
                                                         workers)),
                         telemetry=telemetry, ident="router")

    # -- introspection -------------------------------------------------
    @property
    def distributed(self) -> bool:
        """True when serving through worker processes (not fallback)."""
        return bool(self._handles)

    def routing_table(self) -> dict[str, dict]:
        """Placement of every graph (empty on the fallback path)."""
        return {name: route.describe()
                for name, route in sorted(self._routes.items())}

    def worker_pids(self) -> list[int]:
        return [h.pid for h in self._handles]

    # -- serving -------------------------------------------------------
    def mutate(self, graph: str, mutations) -> int:
        if self.distributed:
            raise ServiceError(
                "mutate-while-serving is single-process only; the "
                "distributed tier serves immutable snapshots")
        return super().mutate(graph, mutations)

    def _execute(self, graph: str, requests) -> None:
        if not self.distributed:
            return super()._execute(graph, requests)
        live = self._claim_live(graph, requests)
        if not live:
            return
        self.telemetry.record_batch(len(live))
        with _trace.span("serve.batch", graph=graph, size=len(live),
                         method=live[0].method,
                         rids=[r.rid for r in live], **self._tk):
            route = self._routes.get(graph)
            if route is None:
                exc = ServiceError(f"graph {graph!r} is not registered "
                                   f"on this router")
                for req in live:
                    self._fail(req, exc, graph)
                return
            if route.kind == "partitioned":
                self._execute_partitioned(graph, route, live)
            else:
                self._execute_routed(graph, route, live)

    def _deadline_left(self, req) -> float | None:
        if req.deadline_at is None:
            return None
        return max(req.deadline_at - time.monotonic(), 1e-3)

    def _execute_routed(self, graph: str, route: RouteEntry,
                        live) -> None:
        worker = route.pick()
        items = [(req.rid, req.query.p, req.query.q, req.method,
                  req.accuracy, self._deadline_left(req))
                 for req in live]
        _trace.event("serve.dispatch", graph=graph,
                     to=f"w{worker}", size=len(items), **self._tk)
        try:
            tag, replies = self._handles[worker].call(
                ("batch", graph, items))
        except Exception as exc:
            failure = ServiceError(f"worker w{worker} failed a batch "
                                   f"on {graph!r}: {exc}")
            for req in live:
                self._fail(req, failure, graph)
            return
        if tag != "batch":  # pragma: no cover - protocol violation
            replies = []
        by_rid = {rid: (status, payload)
                  for rid, status, payload in replies}
        for req in live:
            status, payload = by_rid.get(
                req.rid, ("err", ("ServiceError",
                                  f"worker w{worker} dropped the "
                                  f"request")))
            if status == "ok":
                self._complete(req, unpack_result(payload), graph)
            else:
                self._fail(req, unpack_error(payload, worker), graph)

    def _execute_partitioned(self, graph: str, route: RouteEntry,
                             live) -> None:
        exact = [r for r in live if r.accuracy == "exact"]
        for req in live:
            if req.accuracy != "exact":
                self._fail(req, ServiceError(
                    "partitioned graphs serve the exact tier only"),
                    graph)
        if not exact:
            return
        shapes = sorted({(req.query.p, req.query.q) for req in exact})
        _trace.event("serve.dispatch", graph=graph, to="partitioned",
                     fanout=len(route.owners), shapes=len(shapes),
                     **self._tk)
        t0 = time.monotonic()
        envelope = ("partial", graph, shapes)
        partials: dict[int, dict] = {}
        errors: list[Exception] = []

        def lost(w: int, exc: Exception) -> ServiceError:
            return ServiceError(f"worker w{w} failed a partial count: "
                                f"{exc}")

        # owners ascend by worker id, so the locks are taken in one
        # global order; a routed call holds a single lock, so no cycle
        with ExitStack() as held:
            for w in route.owners:
                held.enter_context(self._handles[w].lock)
            # the owners count concurrently, each in its own process
            sent = []
            for w in route.owners:
                try:
                    self._handles[w].send(envelope)
                except Exception as exc:
                    errors.append(lost(w, exc))
                else:
                    sent.append(w)
            # every reply is read, even after a failure, so each
            # surviving pipe stays in request/response step
            for w in sent:
                try:
                    tag, payload = self._handles[w].recv()
                except Exception as exc:
                    errors.append(lost(w, exc))
                    continue
                if tag == "partial":
                    partials[w] = payload
                else:
                    errors.append(unpack_error(payload, w))
        if errors:
            for req in exact:
                self._fail(req, errors[0], graph)
            return
        elapsed = time.monotonic() - t0
        totals = {shape: sum(partials[w][shape]
                             for w in route.owners)
                  for shape in shapes}
        for req in exact:
            shape = (req.query.p, req.query.q)
            result = CountResult(
                algorithm="partitioned", query=req.query,
                count=totals[shape], wall_seconds=elapsed,
                backend=self.config.backend, backend_instrumented=False,
                extras={"partitions": float(len(route.owners))})
            self._complete(req, result, graph)

    # -- aggregation ---------------------------------------------------
    def cluster_snapshot(self) -> dict:
        """Router + per-worker + merged cluster telemetry, one dict.

        Worker ledgers are folded into :attr:`ledger` as a side effect
        (the cross-process price-calibration loop).  The
        router view measures end-to-end client latency; worker views
        measure in-worker latency — the difference is queue + pipe
        time.
        """
        router_snap = self.telemetry.snapshot()
        if not self.distributed:
            return {"mode": "local", "workers": {},
                    "router": router_snap, "cluster": router_snap}
        with self._harvest_lock:
            reports = {}
            for handle in self._handles:
                if not handle.alive():
                    continue
                try:
                    tag, payload = handle.call(("telemetry",))
                except ServiceError:
                    continue
                if tag != "telemetry":  # pragma: no cover
                    continue
                reports[payload["worker"]] = payload
                self.ledger.merge_snapshot(payload.get("ledger") or {})
        merged = merge_snapshots(
            [p["telemetry"] for p in reports.values()])
        return {
            "mode": "dist",
            "router": router_snap,
            "workers": {str(w): p["telemetry"]
                        for w, p in sorted(reports.items())},
            "worker_pids": {str(w): p["pid"]
                            for w, p in sorted(reports.items())},
            "cluster": merged,
        }

    # -- lifecycle -----------------------------------------------------
    def close(self, drain: bool = True,
              timeout: float | None = None) -> None:
        """Drain (or fail) queued work, harvest, stop the workers."""
        super().close(drain=drain, timeout=timeout)
        if self._handles and not self._workers_closed:
            try:
                self.cluster_snapshot()     # final ledger harvest
            except Exception:  # pragma: no cover - defensive
                log.warning("dist: final telemetry harvest failed",
                            exc_info=True)
            for handle in self._handles:
                handle.close()
            self._workers_closed = True

"""Work-conserving scheduler: many concurrent clients, one count per batch.

Clients — threads or asyncio tasks — submit individual ``(graph, method,
p, q)`` requests and get a future back.  A free worker thread takes the
oldest queued request at once, together with every request queued
behind it for the same ``(graph, method, accuracy)`` (up to
``max_batch``), and evaluates them on one shared session (the same
amortisation :func:`repro.query.batch_count` gives a hand-written
batch).  Batches therefore form only from requests that queued while
every worker was busy; an idle scheduler never holds a request back.
Each request's future resolves with the exact
:class:`~repro.core.counts.CountResult` a direct call would have
produced.

Operationally it behaves like a bounded service, not a script:

* **admission control** — at most ``max_pending`` requests may be queued;
  past that, :meth:`submit` fails fast with
  :class:`~repro.errors.QueueFullError` so overload surfaces as
  backpressure instead of unbounded memory growth;
* **deadlines** — a per-request ``deadline=`` (seconds from submission)
  expires the request with
  :class:`~repro.errors.DeadlineExceededError` if a worker has not
  started it in time;
* **graceful shutdown** — :meth:`close` drains queued work by default,
  or fails it fast with :class:`~repro.errors.ServiceClosedError` when
  ``drain=False``.

Batching never changes answers: a batch executes through the pooled
:class:`~repro.query.GraphSession`, whose counts are bit-identical to
direct single-query calls on every backend (tested in
``tests/service/``).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.core.counts import BicliqueQuery, CountResult
from repro.engine import BACKEND_NAMES
from repro.errors import (DeadlineExceededError, QueueFullError,
                          ServiceClosedError, ServiceError)
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.plan import ensure_accuracy, ensure_known
from repro.service.pool import SessionPool
from repro.service.telemetry import Telemetry

__all__ = ["Scheduler", "SchedulerConfig"]

log = get_logger(__name__)


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of one :class:`Scheduler` (see ``docs/SERVING.md``)."""

    #: most requests one batch takes; the rest stay queued in age order
    max_batch: int = 64
    #: admission bound: queued-but-unstarted requests across all graphs
    max_pending: int = 1024
    #: worker threads executing batches (one batch each, concurrently)
    workers: int = 2
    #: kernel backend every batch runs on, a name in
    #: :data:`repro.engine.BACKEND_NAMES`
    backend: str = "native"
    #: default counting method for requests that do not name one;
    #: ``"auto"`` (GBC) needs ``backend="native"``
    method: str = "GBC"
    #: default service tier for requests that do not name one:
    #: "exact" treats a deadline as a hard admission bound, "approx"
    #: always serves the sampling tier, "auto" falls back to sampling
    #: when a deadline makes every exact plan infeasible
    accuracy: str = "exact"

    def __post_init__(self) -> None:
        ensure_known(self.method, allow_auto=True)
        ensure_accuracy(self.accuracy)
        if self.backend not in BACKEND_NAMES:
            # refused once here, before any worker starts, rather than
            # on every request
            raise ServiceError(f"unknown backend {self.backend!r}; "
                               f"expected one of {BACKEND_NAMES}")
        if self.method == "auto" and self.backend != "native":
            # the planner's auto is GBC on native only: refuse here
            # rather than fail every request
            raise ServiceError(
                f"method='auto' runs GBC on 'native'; with backend="
                f"{self.backend!r} name an explicit method")
        if self.max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {self.max_pending}")
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")


@dataclass
class _Request:
    query: BicliqueQuery
    method: str
    accuracy: str
    future: Future
    submitted_at: float
    deadline_at: float | None   # absolute monotonic, None = no deadline
    rid: int = 0                # per-scheduler request id (trace linkage)


class Scheduler:
    """Accepts concurrent count requests and serves them in batches.

    ``pool`` supplies (and bounds) the per-graph prepared state; the
    scheduler owns only queues and worker threads, so closing it never
    discards prepared sessions.  Constructed schedulers are live
    immediately; use as a context manager for deterministic teardown::

        with Scheduler(pool) as sched:
            future = sched.submit("yt", 3, 3)
            result = future.result()
    """

    def __init__(self, pool: SessionPool,
                 config: SchedulerConfig | None = None,
                 telemetry: Telemetry | None = None,
                 ident: str | None = None,
                 **overrides) -> None:
        if config is not None and overrides:
            raise ServiceError("pass config= or keyword tunables, not both")
        self.pool = pool
        self.config = config or SchedulerConfig(**overrides)
        self.telemetry = telemetry or Telemetry()
        #: optional serving-process identity; when set, every
        #: ``serve.*`` trace event/span carries it as ``worker=`` so
        #: multi-process traces stay attributable after aggregation
        self.ident = ident
        self._tk = {} if ident is None else {"worker": ident}
        self._cond = threading.Condition()
        self._rids = itertools.count(1)
        #: queued requests per (graph, method, accuracy), oldest first
        self._buckets: dict[tuple[str, str, str], list[_Request]] = {}
        self._pending = 0
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-serve-{i}", daemon=True)
            for i in range(self.config.workers)]
        for t in self._workers:
            t.start()

    # -- client API ----------------------------------------------------
    def submit(self, graph: str, p: int | BicliqueQuery,
               q: int | None = None, *, method: str | None = None,
               deadline: float | None = None,
               accuracy: str | None = None) -> "Future[CountResult]":
        """Enqueue one count request; returns its future immediately.

        ``graph`` is a name registered on the pool; ``p``/``q`` are the
        biclique sides (or ``p`` is a ready
        :class:`~repro.core.counts.BicliqueQuery`); ``deadline`` is a
        budget in seconds — if no worker has started the request when it
        lapses, the future fails with
        :class:`~repro.errors.DeadlineExceededError`, and the budget
        remaining at execution is passed through to
        :meth:`repro.query.GraphSession.count` as a planning
        constraint.  ``accuracy`` overrides the config default per
        request: under ``"auto"`` a deadline no exact plan fits is
        served by the sampling tier instead of expiring, with
        ``extras["ci95"]`` reporting the precision bought.

        Raises :class:`~repro.errors.QueueFullError` when ``max_pending``
        requests are already queued,
        :class:`~repro.errors.ServiceClosedError` after :meth:`close`,
        and :class:`~repro.errors.UnknownMethodError` when ``method``
        names nothing in the :mod:`repro.plan` registry (``"auto"`` is
        allowed and resolves per batch through the pooled session's
        planner).  All are admission failures: the request was never
        queued — a bad method name can never reach a worker batch and
        poison its co-batched futures.
        """
        query = p if isinstance(p, BicliqueQuery) else BicliqueQuery(p, q)
        if deadline is not None and deadline <= 0:
            raise ServiceError(f"deadline must be > 0 seconds, "
                               f"got {deadline}")
        resolved_accuracy = ensure_accuracy(accuracy or self.config.accuracy)
        resolved_method = ensure_known(method or self.config.method,
                                       allow_auto=True)
        if resolved_accuracy != "exact" \
                and resolved_method not in ("auto", "approx"):
            # a non-exact tier plans the method itself; an un-asked-for
            # exact default (config or omitted arg) silently upgrades,
            # but an explicitly named exact method is a contradiction
            # the caller must resolve — fail at admission, not in a
            # worker batch
            if method is not None:
                raise ServiceError(
                    f"accuracy={resolved_accuracy!r} plans the method "
                    f"itself; drop method={method!r} or pass 'auto'")
            resolved_method = "auto"
        now = time.monotonic()
        req = _Request(
            query=query,
            method=resolved_method,
            accuracy=resolved_accuracy,
            future=Future(),
            submitted_at=now,
            deadline_at=None if deadline is None else now + deadline)
        with self._cond:
            if self._closed:
                self.telemetry.record_rejected()
                log.warning("rejected %s on %r: scheduler is closed",
                            query, graph)
                _trace.event("serve.rejected", graph=graph,
                             reason="closed", **self._tk)
                raise ServiceClosedError("scheduler is closed")
            if self._pending >= self.config.max_pending:
                self.telemetry.record_rejected()
                log.warning("rejected %s on %r: queue full "
                            "(%d pending, max_pending=%d)",
                            query, graph, self._pending,
                            self.config.max_pending)
                _trace.event("serve.rejected", graph=graph,
                             reason="queue_full", pending=self._pending,
                             **self._tk)
                raise QueueFullError(
                    f"{self._pending} requests already pending "
                    f"(max_pending={self.config.max_pending})")
            req.rid = next(self._rids)
            self._buckets.setdefault((graph, req.method, req.accuracy),
                                     []).append(req)
            self._pending += 1
            self.telemetry.record_submit(self._pending)
            _trace.event("serve.queued", rid=req.rid, graph=graph,
                         method=req.method, p=query.p, q=query.q,
                         **self._tk)
            self._cond.notify()
        return req.future

    async def submit_async(self, graph: str, p: int | BicliqueQuery,
                           q: int | None = None, *,
                           method: str | None = None,
                           deadline: float | None = None,
                           accuracy: str | None = None) -> CountResult:
        """Asyncio front-end: awaitable wrapper around :meth:`submit`.

        Admission failures raise immediately (synchronously inside the
        coroutine); everything else resolves through the event loop.
        """
        future = self.submit(graph, p, q, method=method, deadline=deadline,
                             accuracy=accuracy)
        return await asyncio.wrap_future(future)

    def count(self, graph: str, p: int | BicliqueQuery,
              q: int | None = None, *, method: str | None = None,
              deadline: float | None = None,
              accuracy: str | None = None,
              timeout: float | None = None) -> CountResult:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(graph, p, q, method=method, deadline=deadline,
                           accuracy=accuracy).result(timeout=timeout)

    def mutate(self, graph: str, mutations) -> int:
        """Apply an edge-mutation batch to a dynamic pooled graph.

        The synchronous write path of mutate-while-serving: writers go
        straight to the pool (serialised on the dynamic session's own
        lock) while reader batches keep executing against the epochs
        they pinned at batch start.  Returns the graph's new epoch.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosedError("scheduler is closed")
        mutations = list(mutations)
        epoch = self.pool.mutate(graph, mutations)
        self.telemetry.record_mutations(len(mutations))
        return epoch

    def pending(self) -> int:
        """Requests queued but not yet handed to a worker."""
        with self._cond:
            return self._pending

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admitting requests and shut the workers down.

        With ``drain=True`` (default) queued batches still execute;
        with ``drain=False`` every queued request fails fast with
        :class:`~repro.errors.ServiceClosedError` and counts as
        ``failed`` in telemetry.  Idempotent.
        """
        with self._cond:
            self._closed = True
            if not drain:
                dropped = 0
                for items in self._buckets.values():
                    for req in items:
                        if req.future.set_running_or_notify_cancel():
                            req.future.set_exception(
                                ServiceClosedError("scheduler closed "
                                                   "before execution"))
                            dropped += 1
                if dropped:
                    self.telemetry.record_failed(dropped)
                    log.warning("closed without drain: failed %d queued "
                                "request(s)", dropped)
                self._pending = 0
                self._buckets.clear()
            self._cond.notify_all()
        for t in self._workers:
            t.join(timeout=timeout)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker side ---------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            picked = self._next_batch()
            if picked is None:
                return
            graph, requests = picked
            self._execute(graph, requests)

    def _next_batch(self) -> tuple[str, list[_Request]] | None:
        """Block until a request is queued, then pop the bucket holding
        the oldest one, up to ``max_batch`` requests; None means shut
        down (after the queue drains, unless closed without drain)."""
        with self._cond:
            while not self._buckets:
                if self._closed:
                    return None
                self._cond.wait()
            key = min(self._buckets, key=lambda k: self._buckets[k][0].rid)
            items = self._buckets.pop(key)
            take, rest = (items[:self.config.max_batch],
                          items[self.config.max_batch:])
            if rest:
                self._buckets[key] = rest
            self._pending -= len(take)
            return key[0], take

    def _claim_live(self, graph: str,
                    requests: list[_Request]) -> list[_Request]:
        """Claim each request's future; drop cancellations, expire
        requests whose deadline lapsed in the queue.  Shared by the
        in-process batch path and the distributed router."""
        now = time.monotonic()
        live: list[_Request] = []
        for req in requests:
            if not req.future.set_running_or_notify_cancel():
                continue                       # client cancelled it
            if req.deadline_at is not None and now > req.deadline_at:
                req.future.set_exception(DeadlineExceededError(
                    f"deadline passed {now - req.deadline_at:.3f}s before "
                    f"execution of {req.query} on {graph!r}"))
                self.telemetry.record_expired()
                log.info("expired request %d (%s on %r): deadline "
                         "passed %.3fs before execution", req.rid,
                         req.query, graph, now - req.deadline_at)
                _trace.event("serve.expired", rid=req.rid, graph=graph,
                             late_s=now - req.deadline_at, **self._tk)
                continue
            live.append(req)
        return live

    def _complete(self, req: _Request, result: CountResult,
                  graph: str) -> None:
        """Resolve one claimed request with its result (+telemetry)."""
        req.future.set_result(result)
        if result.algorithm == "approx":
            self.telemetry.record_approx()
        latency = time.monotonic() - req.submitted_at
        self.telemetry.record_completed(latency)
        _trace.event("serve.completed", rid=req.rid,
                     graph=graph, method=result.algorithm,
                     latency_ms=latency * 1e3, **self._tk)

    def _fail(self, req: _Request, exc: Exception, graph: str) -> None:
        """Fail one claimed request (deadline misses count as expiry)."""
        req.future.set_exception(exc)
        if isinstance(exc, DeadlineExceededError):
            self.telemetry.record_expired()
            log.info("expired request %d (%s on %r): %s",
                     req.rid, req.query, graph, exc)
            _trace.event("serve.expired", rid=req.rid, graph=graph,
                         **self._tk)
        else:
            self.telemetry.record_failed()
            log.warning("request %d (%s on %r) failed: %s",
                        req.rid, req.query, graph, exc)

    def _execute(self, graph: str, requests: list[_Request]) -> None:
        cfg = self.config
        live = self._claim_live(graph, requests)
        if not live:
            return
        self.telemetry.record_batch(len(live))
        with _trace.span("serve.batch", graph=graph, size=len(live),
                         method=live[0].method,
                         rids=[r.rid for r in live], **self._tk):
            try:
                session = self.pool.session(graph)
            except Exception as exc:           # unknown graph, loader bug
                log.warning("batch of %d on %r failed: no session (%s)",
                            len(live), graph, exc)
                for req in live:
                    req.future.set_exception(exc)
                    self.telemetry.record_failed()
                return
            for req in live:
                # the budget still standing when the worker reaches the
                # request becomes a planning constraint: exact tiers
                # admit against it, "auto" downgrades to sampling
                deadline_left = None if req.deadline_at is None \
                    else max(req.deadline_at - time.monotonic(), 1e-3)
                try:
                    result = session.count(req.query, req.method,
                                           backend=cfg.backend,
                                           accuracy=req.accuracy,
                                           deadline=deadline_left)
                except Exception as exc:
                    self._fail(req, exc, graph)
                    continue
                self._complete(req, result, graph)

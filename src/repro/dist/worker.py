"""The distributed serving worker: one forked process, one pool shard.

A worker is one thread in one process.  It owns a
:class:`~repro.service.pool.SessionPool` holding only the graphs the
router placed on it, a :class:`~repro.service.telemetry.Telemetry`
recording what it served, a private
:class:`~repro.obs.ledger.CostLedger` calibrating the worker's
deadline prices, and — for partitioned graphs — its shard of the
graph's U roots (the router's LPT cut on U degrees) with cached
:func:`~repro.partition.runner.build_root_index` state per query ``q``
so repeated partial counts over that shard skip index builds.  The
worker holds the whole partitioned graph (fork inheritance); only the
counting work is split.

The thread that reads the pipe answers every envelope itself: a
``"batch"`` runs its items in order on the pooled session
(:func:`_serve_batch`), each with the deadline budget it has left.
Batching, admission and queue-side expiry already happened at the
router, so there is no scheduler and no thread hand-off in here.

Transport is a single duplex pipe per worker, strictly
request/response.  Message envelopes (parent → worker)::

    ("batch", graph, [(rid, p, q, method, accuracy, deadline), ...])
    ("partial", graph, [(p, q), ...])
    ("telemetry",)
    ("close",)

Results cross the pipe as plain tuples/dicts (never exceptions or
CountResults, which keeps the protocol picklable by construction):
``("ok", payload)`` per request with the fields to rebuild a
:class:`~repro.core.counts.CountResult`, or ``("err", (type_name,
message))`` which the router rehydrates into the matching
:mod:`repro.errors` class.  Workers are spawned via **fork**, so the
graph arrays arrive by inheritance — nothing graph-sized is ever
pickled.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.counts import BicliqueQuery, CountResult
from repro.errors import (DeadlineExceededError, PartitionError,
                          QueryError, QueueFullError, ServiceClosedError,
                          ServiceError, UnknownMethodError)
from repro.obs import trace as _trace
from repro.obs.ledger import CostLedger
from repro.partition.runner import build_root_index, count_roots
from repro.service.telemetry import Telemetry

__all__ = ["WorkerHandle", "pack_error", "unpack_error", "pack_result",
           "unpack_result"]

#: error classes allowed to cross the worker pipe by name; anything
#: else degrades to ServiceError with the worker's message
_ERROR_TYPES = {cls.__name__: cls for cls in (
    DeadlineExceededError, PartitionError, QueryError, QueueFullError,
    ServiceClosedError, ServiceError, UnknownMethodError, ValueError)}


def pack_error(exc: BaseException) -> tuple[str, str]:
    return (type(exc).__name__, str(exc))


def unpack_error(payload, worker_id: int) -> Exception:
    name, message = payload
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        return ServiceError(f"worker w{worker_id}: {name}: {message}")
    return cls(message)


def pack_result(result: CountResult) -> dict:
    extras = {k: v for k, v in (result.extras or {}).items()
              if isinstance(v, (int, float, str, bool, type(None)))}
    return {"algorithm": result.algorithm, "p": result.query.p,
            "q": result.query.q, "count": result.count,
            "wall_seconds": result.wall_seconds,
            "anchored_layer": result.anchored_layer,
            "backend": result.backend, "extras": extras}


def unpack_result(payload: dict) -> CountResult:
    return CountResult(algorithm=payload["algorithm"],
                       query=BicliqueQuery(payload["p"], payload["q"]),
                       count=payload["count"],
                       wall_seconds=payload["wall_seconds"],
                       anchored_layer=payload["anchored_layer"],
                       backend=payload["backend"],
                       backend_instrumented=False,
                       extras=dict(payload["extras"]))


class _PartialCounter:
    """Per-worker exact counting over its shard of a graph's roots, on
    the worker's configured kernel backend."""

    def __init__(self, graph, roots, backend) -> None:
        self.graph = graph
        self.roots = sorted(int(r) for r in roots)
        self.backend = backend
        self._indexes: dict[int, object] = {}
        self._counts: dict[tuple[int, int], int] = {}

    def count(self, p: int, q: int) -> int:
        key = (int(p), int(q))
        hit = self._counts.get(key)
        if hit is not None:
            return hit
        index = self._indexes.get(key[1])
        if index is None:
            index = build_root_index(self.graph, key[1])
            self._indexes[key[1]] = index
        total = count_roots(self.graph, BicliqueQuery(*key), self.roots,
                            index=index, backend=self.backend)
        self._counts[key] = total
        return total


def _serve_batch(pool, telemetry: Telemetry, backend: str, graph: str,
                 items: list, ident: str | None = None) -> list:
    """Answer one ``("batch", graph, items)`` envelope on the calling
    thread; returns one ``(rid, "ok"|"err", payload)`` per item, in
    item order.

    Each item's ``deadline`` is the budget the router had left when it
    shipped the envelope; it is measured from receipt here and passed
    on as ``max(budget left, 1e-3)`` — the same floor
    :meth:`~repro.service.scheduler.Scheduler._execute` applies — so an
    exact plan that no longer fits raises
    :class:`~repro.errors.DeadlineExceededError` and
    ``accuracy="auto"`` falls back to sampling.  ``telemetry`` records
    what an in-process scheduler would have: one submit per item, one
    batch per envelope, and completion latency from receipt.
    """
    received = time.monotonic()
    for depth in range(1, len(items) + 1):
        telemetry.record_submit(depth)
    telemetry.record_batch(len(items))
    tk = {} if ident is None else {"worker": ident}
    with _trace.span("serve.batch", graph=graph, size=len(items),
                     rids=[item[0] for item in items], **tk):
        try:
            session = pool.session(graph)
        except Exception as exc:           # unknown graph, loader bug
            telemetry.record_failed(len(items))
            return [(item[0], "err", pack_error(exc)) for item in items]
        out: list[tuple] = []
        for rid, p, q, method, accuracy, budget in items:
            deadline = None if budget is None else max(
                budget - (time.monotonic() - received), 1e-3)
            try:
                result = session.count(BicliqueQuery(p, q), method,
                                       backend=backend,
                                       accuracy=accuracy,
                                       deadline=deadline)
            except Exception as exc:
                if isinstance(exc, DeadlineExceededError):
                    telemetry.record_expired()
                else:
                    telemetry.record_failed()
                out.append((rid, "err", pack_error(exc)))
                continue
            if result.algorithm == "approx":
                telemetry.record_approx()
            telemetry.record_completed(time.monotonic() - received)
            out.append((rid, "ok", pack_result(result)))
        return out


def worker_main(conn, worker_id: int, graphs: dict,
                partition_roots: dict, backend: str
                ) -> None:  # pragma: no cover - runs in fork child
    """Entry point of one serving worker (inside the forked child).

    ``graphs`` maps name -> BipartiteGraph for this worker's shard;
    ``partition_roots`` maps partitioned-graph name -> this worker's
    root list.  Both arrive through fork inheritance; ``backend`` is
    the kernel backend every count runs on.
    """
    from repro.service.pool import SessionPool

    ledger = CostLedger()
    pool = SessionPool(max_sessions=max(len(graphs), 1), ledger=ledger)
    for name, graph in graphs.items():
        pool.register(name, graph)
    telemetry = Telemetry()
    ident = f"w{worker_id}"
    partials = {name: _PartialCounter(graphs[name], roots, backend)
                for name, roots in partition_roots.items()}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "batch":
                _, graph, items = msg
                conn.send(("batch", _serve_batch(pool, telemetry, backend,
                                                 graph, items, ident)))
            elif kind == "partial":
                _, graph, shapes = msg
                counter = partials.get(graph)
                if counter is None:
                    conn.send(("err", pack_error(ServiceError(
                        f"no partition of {graph!r} on worker "
                        f"w{worker_id}"))))
                    continue
                try:
                    counts = {tuple(s): counter.count(*s)
                              for s in shapes}
                except Exception as exc:
                    conn.send(("err", pack_error(exc)))
                else:
                    conn.send(("partial", counts))
            elif kind == "telemetry":
                conn.send(("telemetry", {
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "graphs": sorted(graphs),
                    "partitioned": sorted(partials),
                    "telemetry": telemetry.snapshot(include_samples=True),
                    "ledger": ledger.snapshot(),
                    "pool": pool.snapshot(),
                }))
            elif kind == "close":
                conn.send(("closed", worker_id))
                return
            else:
                conn.send(("err", pack_error(ServiceError(
                    f"unknown envelope kind {kind!r}"))))
    finally:
        pool.close()


class WorkerHandle:
    """Parent-side handle: spawn, exchange envelopes, shut down.

    One envelope is in flight per worker at a time: whoever holds
    :attr:`lock` owns the pipe from :meth:`send` to the matching
    :meth:`recv`.  :meth:`call` is that pair for one worker; the
    router's partitioned fan-out takes several owners' locks (in
    worker-id order), sends to all, then collects every reply, so the
    workers count concurrently without a thread per owner.
    """

    def __init__(self, ctx, worker_id: int, graphs: dict,
                 partition_roots: dict, backend: str) -> None:
        self.worker_id = int(worker_id)
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, self.worker_id, graphs, partition_roots,
                  backend),
            name=f"repro-dist-w{worker_id}", daemon=True)
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        #: held from send() to the matching recv()
        self.lock = threading.Lock()
        self._closed = False

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return not self._closed and self.process.is_alive()

    def _died(self, exc: BaseException) -> ServiceError:
        self._closed = True
        return ServiceError(f"worker w{self.worker_id} died "
                            f"({type(exc).__name__})")

    def send(self, envelope: tuple) -> None:
        """Ship one envelope (caller holds :attr:`lock`)."""
        if self._closed:
            raise ServiceError(f"worker w{self.worker_id} is closed")
        try:
            self._conn.send(envelope)
        except (EOFError, OSError) as exc:
            raise self._died(exc) from exc

    def recv(self):
        """Block for the reply to the last :meth:`send` (caller holds
        :attr:`lock`)."""
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died(exc) from exc

    def call(self, envelope: tuple):
        """Send one envelope, block for its reply."""
        with self.lock:
            self.send(envelope)
            return self.recv()

    def close(self, timeout: float = 5.0) -> None:
        """Graceful shutdown; escalates to terminate (idempotent)."""
        with self.lock:
            if not self._closed:
                try:
                    self._conn.send(("close",))
                    self._conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    pass
                self._closed = True
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=1.0)

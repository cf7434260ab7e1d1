"""Hold every scheduler worker busy, so test requests stay queued.

The scheduler dispatches work-conserving: an idle worker takes a queued
request at once.  Tests that need requests to sit in the queue (batch
formation, backpressure, deadline expiry, shutdown) first occupy every
worker with :func:`occupy_workers`, submit, then let the workers go.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import wait
from contextlib import contextmanager

TIMEOUT_S = 30.0


@contextmanager
def occupy_workers(sched, graph: str, p: int = 2, q: int = 2):
    """Park one ``graph`` request on each worker of ``sched`` until the
    block exits; yields the parked requests' futures.

    Each parked request waits on an event just before its worker
    executes it, then runs normally, so telemetry counts one extra
    submitted request and one extra batch per worker.  The hold sits
    at the dispatch seam both :class:`~repro.service.Scheduler` and
    :class:`~repro.dist.DistRouter` share, so it parks a router's
    threads as well as an in-process scheduler's.
    """
    gate = threading.Event()
    entered = threading.Semaphore(0)
    execute, calls = sched._execute, itertools.count()
    workers = sched.config.workers

    def held(name, requests):
        if next(calls) < workers:
            entered.release()
            gate.wait(TIMEOUT_S)
        execute(name, requests)

    sched._execute = held
    futures = []
    try:
        for _ in range(workers):
            futures.append(sched.submit(graph, p, q))
            # one worker per parked request: the next submit can only
            # reach a worker that is still idle
            assert entered.acquire(timeout=TIMEOUT_S), "worker never came"
        yield futures
    finally:
        gate.set()
        wait(futures, timeout=TIMEOUT_S)
        del sched._execute


def wait_offered(sched, n: int) -> None:
    """Block until ``n`` requests were admitted or rejected in total."""
    stop = time.monotonic() + TIMEOUT_S
    while True:
        snap = sched.telemetry.snapshot()
        if snap["submitted"] + snap["rejected"] >= n:
            return
        assert time.monotonic() < stop, f"only {snap} offered"
        time.sleep(0.001)

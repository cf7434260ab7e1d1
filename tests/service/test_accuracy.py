"""Deadline-path regressions for the accuracy tiers in the service.

The scenario the approx tier exists for: a workload whose exact plans
cannot fit the per-request deadline.  Under ``accuracy="auto"`` every
request must still complete — answered by the sampling tier, carrying
its ci95 — and the answers must be good to the precision they claim
(each checked against the exact count).  Under ``accuracy="exact"``
the same workload must *refuse* rather than silently degrade: every
request expires with :class:`~repro.errors.DeadlineExceededError`.

The graph/deadline pair is picked so the admission decision is
deterministic: the best exact plan on the scheduler's ``fast`` engine
predicts ~65 ms against a 10 ms deadline, a margin over 5x that no
scheduler jitter can flip.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.errors import DeadlineExceededError, ServiceError
from repro.graph.generators import random_bipartite
from repro.plan import Planner
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler, SchedulerConfig

#: dense enough that every exact plan predicts far beyond DEADLINE
GRAPH = random_bipartite(200, 150, 4000, seed=3)
QUERY = BicliqueQuery(3, 3)
DEADLINE = 0.01


@pytest.fixture(scope="module")
def exact_count():
    # counts are engine-independent; native keeps the oracle cheap
    return gbc_count(GRAPH, QUERY, backend="native").count


@pytest.fixture()
def scheduler():
    pool = SessionPool(max_sessions=1)
    pool.register("g", GRAPH)
    sched = Scheduler(pool, config=SchedulerConfig())
    yield sched
    sched.close()


def test_deadline_is_actually_infeasible_for_exact():
    """Guard the premise: if the cost model ever gets fast enough to
    predict this plan under the deadline, the tests below stop testing
    the fallback path — fail loudly here instead."""
    best = Planner(GRAPH).rank(QUERY, backend="fast")[0]
    assert best.predicted_seconds > 5 * DEADLINE


class TestSchedulerTiers:
    def test_auto_falls_back_to_approx(self, scheduler, exact_count):
        result = scheduler.count("g", QUERY.p, QUERY.q, accuracy="auto",
                                 deadline=DEADLINE)
        assert result.algorithm == "approx"
        assert result.extras["ci95"] >= 0.0
        assert abs(result.count - exact_count) \
            <= result.extras["ci95"] + 0.5
        assert scheduler.telemetry.snapshot()["approx_completed"] == 1

    def test_exact_refuses_instead_of_degrading(self, scheduler):
        with pytest.raises(DeadlineExceededError):
            scheduler.count("g", QUERY.p, QUERY.q, accuracy="exact",
                            deadline=DEADLINE)
        snap = scheduler.telemetry.snapshot()
        assert snap["expired"] == 1
        assert snap["failed"] == 0       # a miss is not a malfunction

    def test_no_deadline_stays_exact(self, scheduler, exact_count):
        result = scheduler.count("g", QUERY.p, QUERY.q, accuracy="auto")
        assert result.algorithm != "approx"
        assert result.count == exact_count

    def test_explicit_exact_method_with_approx_tier_rejected(self,
                                                             scheduler):
        """Naming an exact method AND a non-exact tier is a
        contradiction; it must fail at admission, before a worker batch
        could be poisoned by it."""
        with pytest.raises(ServiceError, match="plans the method"):
            scheduler.submit("g", QUERY.p, QUERY.q, method="GBC",
                             accuracy="approx")

    def test_approx_tier_without_deadline_samples_by_default(self,
                                                             scheduler):
        result = scheduler.count("g", QUERY.p, QUERY.q, accuracy="approx")
        assert result.algorithm == "approx"
        assert result.extras["samples"] > 0


class TestWorkloadUnderDeadline:
    """A closed loop: two client threads, each submitting four requests
    and waiting for every answer before it sends the next."""

    CLIENTS = 2
    REQUESTS_PER_CLIENT = 4

    def _run(self, accuracy: str):
        """Every request's outcome: its result, or the exception it
        raised at submission or on its future."""
        pool = SessionPool(max_sessions=1)
        pool.register("g", GRAPH)
        sched = Scheduler(pool, config=SchedulerConfig())
        outcomes = []

        def client():
            for _ in range(self.REQUESTS_PER_CLIENT):
                try:
                    outcomes.append(sched.submit(
                        "g", QUERY.p, QUERY.q, method="auto",
                        deadline=DEADLINE, accuracy=accuracy).result())
                except Exception as exc:
                    outcomes.append(exc)

        threads = [threading.Thread(target=client)
                   for _ in range(self.CLIENTS)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sched.close()
        served = [o for o in outcomes if not isinstance(o, Exception)]
        expired = [o for o in outcomes
                   if isinstance(o, DeadlineExceededError)]
        failed = [o for o in outcomes if isinstance(o, Exception)
                  and not isinstance(o, DeadlineExceededError)]
        return outcomes, served, expired, failed

    def test_auto_workload_completes_via_sampling(self, exact_count):
        _, served, expired, _ = self._run("auto")
        assert len(served) == 8
        assert expired == []
        assert all(r.algorithm == "approx" for r in served)
        for r in served:
            ci95 = r.extras.get("ci95")
            assert ci95 is not None
            assert abs(r.count - exact_count) <= ci95 + 0.5

    def test_exact_workload_expires_instead(self):
        issued, served, expired, failed = self._run("exact")
        assert served == []
        assert len(expired) == len(issued) == 8
        assert failed == []

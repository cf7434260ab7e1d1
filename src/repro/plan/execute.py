"""Plan execution: the ONE place a method name becomes a counter call.

Every dispatcher in the repo — :func:`repro.bench.runner.run_method`,
the CLI, :meth:`repro.query.GraphSession.count` (hence ``batch_count``),
and the serving :class:`~repro.service.scheduler.Scheduler` — resolves
to :func:`execute_plan`.  There is deliberately no other site that maps
``"GBC"`` to :func:`repro.core.gbc.gbc_count`: registering a
:class:`~repro.plan.registry.MethodSpec` is sufficient for a new
counter to be reachable from every layer.
"""

from __future__ import annotations

import time

from repro.engine.base import resolve_backend
from repro.errors import PlanError, QueryError
from repro.graph.stats import graph_fingerprint
from repro.obs import trace as _trace
from repro.plan.ir import CountPlan
from repro.plan.planner import Planner, prepared_keys
from repro.plan.registry import AUTO, get_method

__all__ = ["execute_plan", "explicit_plan", "plan_query", "warm_session"]


def explicit_plan(graph, query, method: str, *,
                  backend=None, workers: int | None = None,
                  layer: str | None = None,
                  samples: int | None = None,
                  seed: int | None = None) -> CountPlan:
    """A plan for an explicitly named method, unpriced.

    The plan records the engine :func:`repro.engine.base.resolve_backend`
    selects for ``backend=``/``workers=`` (``None`` is ``native``), so
    it names the engine that will actually run.  ``samples``/
    ``seed`` pin the approx tier's estimator budget and stream on the
    plan (exact methods ignore them).  Raises
    :class:`~repro.errors.UnknownMethodError` for names not in the
    registry.
    """
    mspec = get_method(method)
    return CountPlan(
        method=method, p=query.p, q=query.q,
        backend=resolve_backend(backend, workers=workers).name,
        workers=workers, layer=layer,
        prepared=prepared_keys(mspec, graph, query, layer),
        source="explicit",
        reason=f"explicitly requested {method}",
        samples=None if samples is None else int(samples),
        seed=None if seed is None else int(seed),
    )


def plan_query(graph, query, method: str = "GBC", *,
               backend=None, workers: int | None = None,
               layer: str | None = None, session=None,
               accuracy: str = "exact",
               deadline: float | None = None) -> CountPlan:
    """Turn a (possibly ``"auto"``) method request into a
    :class:`~repro.plan.ir.CountPlan`.

    Explicit names plan trivially; ``method="auto"`` runs the
    :class:`~repro.plan.planner.Planner`: GBC on ``native``, and a
    :class:`~repro.errors.PlanError` on any other engine.  With a
    ``session`` the decision comes from
    :meth:`repro.query.GraphSession.plan`, the session's per-shape plan
    cache.  ``accuracy``/``deadline`` select the service tier for
    planned (``"auto"``) requests exactly as
    :meth:`~repro.plan.planner.Planner.plan` documents; the approx
    tier's sample budget lives on the returned plan.
    """
    if method == AUTO or accuracy != "exact":
        if method != AUTO and method != "approx":
            raise QueryError(
                f"accuracy={accuracy!r} plans the method itself; pass "
                f"method='auto' (got explicit method {method!r})")
        if session is not None:
            return session.plan(query, backend=backend, workers=workers,
                                layer=layer, accuracy=accuracy,
                                deadline=deadline)
        return Planner(graph).plan(query, backend=backend,
                                   workers=workers, layer=layer,
                                   accuracy=accuracy, deadline=deadline)
    return explicit_plan(graph, query, method, backend=backend,
                         workers=workers, layer=layer)


def warm_session(session, plan: CountPlan) -> None:
    """Build exactly the prepared state ``plan`` requires on ``session``.

    Each ``kind:layer[:k]`` key maps to one lazy builder of
    :class:`repro.query.GraphSession`; builders are memoised, so
    warming is idempotent and a batch that shares one session pays each
    structure at most once regardless of how many plans require it.
    """
    keys = [key.split(":") for key in plan.prepared]
    for parts in keys:
        kind, layer = parts[0], parts[1]
        if kind == "wedges":
            # the pass serves the smallest k the plan reads on its layer
            ks = [int(other[2]) for other in keys
                  if other[1] == layer and len(other) == 3]
            session.wedges(layer, min(ks, default=2))
            continue
        k = int(parts[2])
        if kind == "order":
            session.priority_order(layer, k)
            session.priority_rank(layer, k)
        elif kind == "two_hop":
            session.two_hop_index(layer, k)
        elif kind == "two_hop_id":
            session.id_order_index(k)
        elif kind == "htb":
            session.htb_pair(layer, k)
        else:
            raise PlanError(f"unknown prepared-state kind in plan "
                            f"requirement {':'.join(parts)!r}")


def execute_plan(plan: CountPlan, graph, query=None, *,
                 session=None, spec=None, backend=None,
                 options=None, threads: int = 16, ledger=None):
    """Execute ``plan`` against ``graph`` and return the
    :class:`~repro.core.counts.CountResult`.

    ``query`` may be omitted (rebuilt from the plan) but must match the
    plan's (p, q) when given.  ``backend=`` accepts a ready
    :class:`~repro.engine.base.KernelBackend` *instance* to preserve a
    caller's configured engine (a session-bound simulated device, a
    :class:`~repro.engine.native.NativeBackend` with workers); otherwise
    the plan's backend/workers resolve through
    :func:`~repro.engine.base.resolve_backend`.  ``options`` overrides
    the method's registered defaults (the GBC ablation variants carry
    theirs in the registry).

    ``ledger=`` (defaulting to the session's, when it carries one)
    receives the run's measured wall seconds, which is what a deadline
    budgets — this is the single site where every dispatcher's real
    executions feed the :class:`repro.obs.ledger.CostLedger`, because
    every dispatcher already resolves here.
    """
    # deferred: the counter modules import repro.plan.registry at their
    # own import time, so repro.plan must not import repro.core eagerly
    from repro.core.counts import BicliqueQuery

    mspec = get_method(plan.method)
    if query is None:
        query = BicliqueQuery(plan.p, plan.q)
    elif not plan.matches(query):
        raise PlanError(f"plan was made for ({plan.p}, {plan.q}) but "
                        f"asked to execute ({query.p}, {query.q})")
    if ledger is None:
        ledger = getattr(session, "ledger", None)
    engine = resolve_backend(backend if backend is not None
                             else plan.backend,
                             spec, workers=plan.workers)
    if options is None and mspec.default_options is not None:
        options = mspec.default_options()
    with _trace.span("plan.execute", method=plan.method,
                     backend=engine.name, p=plan.p, q=plan.q,
                     source=plan.source) as sp:
        if session is not None and mspec.supports_sessions:
            warm_session(session, plan)
        available = {
            "backend": engine,
            "session": session if mspec.supports_sessions else None,
            "layer": plan.layer,
            "spec": spec,
            "options": options,
            "threads": threads,
            "samples": plan.samples,
            "seed": plan.seed,
        }
        kwargs = {name: value for name, value in available.items()
                  if name in mspec.accepts}
        t0 = time.perf_counter()
        with _trace.span("kernel.batch", method=plan.method,
                         backend=engine.name):
            result = mspec.runner(graph, query, **kwargs)
        elapsed = time.perf_counter() - t0
        if ledger is not None:
            fingerprint = session.fingerprint if session is not None \
                else graph_fingerprint(graph)
            ledger.record(fingerprint, plan.p, plan.q, plan.method,
                          engine.name, elapsed,
                          predicted_seconds=plan.predicted_seconds)
        sp.annotate(seconds=elapsed, count=getattr(result, "count", None))
    return result

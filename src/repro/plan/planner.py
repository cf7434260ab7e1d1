"""The planner behind ``method="auto"``, and the one price every
deadline reads.

``auto`` is a rule, not a ranking: on ``native`` — the free choice,
whenever no engine is pinned — it runs GBC, the paper's method
(§IV–V) and the fastest exact counter measured on that engine, forked
over ``workers=N`` LPT root shards when asked.  With ``fast`` or
``sim`` pinned, the exact tier raises :class:`~repro.errors.PlanError`
naming the explicit methods, since the rule has nothing to choose
there.

Prices come from one work bound over the arrays the count itself
builds.  :func:`repro.core.device_common.root_work_bound` gives each
promising root ``deg(r) * C(|N2^q(r)|, p - 1)``, read off the anchored
view and the rank-filtered two-hop index that
:func:`~repro.core.device_common.prepare_device_inputs` returns — the
same two-hop size the paper's pre-runtime balancer weights roots by
(§V-C).  A (method, engine) pair prices a run as ``bound / rate``,
with the rate the counter registers
(:attr:`~repro.plan.registry.MethodSpec.rates`, fitted to cold counts,
so a price covers prepare and search).  A
:class:`~repro.obs.ledger.CostLedger` calibrates the price from its
cell's measurements (:meth:`~repro.obs.ledger.CostLedger.calibrated`).
That one price serves deadline admission, the approx tier's sample
budget, the dynamic-graph cutover and ``repro plan explain``; it
depends on the graph and the shape only, so it is identical run to
run, planner to planner, with or without a session.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine.base import resolve_backend_name
from repro.errors import DeadlineExceededError, PlanError
from repro.graph.bipartite import LAYER_U
from repro.graph.priority import select_layer
from repro.graph.stats import graph_fingerprint
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.plan.ir import CountPlan
from repro.plan.registry import (
    MethodSpec,
    approx_candidates,
    ensure_accuracy,
    get_method,
    method_names,
)

__all__ = ["Planner", "prepared_keys"]

log = get_logger(__name__)

#: smallest sample budget the planner will size under a deadline — below
#: this the std_error is too noisy to mean anything
MIN_APPROX_SAMPLES = 8
#: fraction of a deadline the sized budget may spend: headroom for
#: queueing, prediction error, and the answer's delivery
DEADLINE_SAFETY = 0.5


def prepared_keys(mspec: MethodSpec, graph, query,
                  layer: str | None = None) -> tuple[str, ...]:
    """The session-state keys a method needs for one query.

    Keys are ``kind:layer[:k]`` strings a
    :class:`repro.query.GraphSession` can warm directly (see
    :func:`repro.plan.execute.warm_session`): the anchored layer and the
    effective two-hop depth ``k`` are resolved exactly as the counter
    will resolve them, so warming a plan's requirements is equivalent to
    letting the counter build lazily — just observable and timeable.
    Every engine reads the same state, so the keys depend on the method
    and the query only.
    """
    if not mspec.supports_layer:        # Basic: always anchored on U
        anchored, k = LAYER_U, query.q
    else:
        anchored = layer or select_layer(graph, query.p, query.q)
        k = query.q if anchored == LAYER_U else query.p
    keys = []
    for kind in mspec.prepared_kinds:
        if kind == "wedges":
            keys.append(f"wedges:{anchored}")
        else:
            keys.append(f"{kind}:{anchored}:{k}")
    return tuple(keys)


def _cost(plan: CountPlan) -> float:
    """What a deadline is checked against: the ledger's calibrated
    seconds when its cell has history, else the prediction."""
    return plan.calibrated_seconds if plan.calibrated_seconds is not None \
        else plan.predicted_seconds


def _explicit_methods() -> str:
    """The exact, non-ablation methods a caller can name instead."""
    return ", ".join(name for name in method_names()
                     if not (get_method(name).ablation
                             or get_method(name).approximate))


class Planner:
    """Plans ``method="auto"`` queries and prices runs on one graph.

    ``session`` (a :class:`repro.query.GraphSession` over ``graph``)
    serves the prepared arrays the work bound reads, so pricing a warm
    session builds nothing; without one, each price prepares afresh.
    ``ledger`` (a :class:`repro.obs.ledger.CostLedger`) calibrates each
    price from its (fingerprint, shape, method, backend) cell.
    """

    def __init__(self, graph, session=None, ledger=None) -> None:
        if session is not None:
            session.check_owns(graph)
        self.graph = graph
        self.session = session
        self.ledger = ledger

    def bound(self, query, layer: str | None = None) -> tuple[float, int]:
        """The query's work bound (summed over its promising roots) and
        the number of those roots."""
        from repro.core.device_common import (prepare_device_inputs,
                                              root_work_bound)

        inputs = prepare_device_inputs(self.graph, query, layer,
                                       session=self.session)
        return float(root_work_bound(inputs).sum()), len(inputs.roots)

    def _price(self, query, mspec: MethodSpec, engine: str,
               layer: str | None) -> tuple[float, dict]:
        """One method's uncalibrated price on one engine: ``(seconds,
        price inputs)``.  Unpriced methods cost 0.0 and prepare
        nothing."""
        rate = (mspec.rates or {}).get(engine)
        if rate is None:
            return 0.0, {}
        bound, population = self.bound(query, layer)
        return bound / rate, {"bound": bound, "rate": rate,
                              "population": population}

    def _calibrate(self, query, method: str, engine: str,
                   predicted: float):
        """``(ledger cell, calibrated seconds)`` for one price, both
        None without a ledger or without history for the cell."""
        if self.ledger is None:
            return None, None
        fingerprint = self.session.fingerprint \
            if self.session is not None else graph_fingerprint(self.graph)
        key = (fingerprint, query.p, query.q, method, engine)
        return (self.ledger.lookup(*key),
                self.ledger.calibrated(*key, predicted))

    # -- planning -------------------------------------------------------
    def plan(self, query, backend=None, workers: int | None = None,
             layer: str | None = None, *,
             accuracy: str = "exact",
             deadline: float | None = None) -> CountPlan:
        """The plan ``method="auto"`` executes.

        The exact tier is GBC on ``native`` (``backend=None`` means
        ``native``), forked over ``workers=N`` root shards when given.
        It is unpriced
        (``predicted_seconds`` 0.0) unless a ``deadline`` asks for a
        price; any other engine raises :class:`~repro.errors.PlanError`.

        ``accuracy`` selects the tier: ``"exact"`` (default) raises
        :class:`~repro.errors.DeadlineExceededError` when the price
        blows the ``deadline``; ``"approx"`` plans the sampling tier,
        its sample budget sized so the priced run fits the deadline;
        ``"auto"`` serves exact when it fits and falls back to the
        approx tier otherwise — the paper's per-request deadlines as a
        planning constraint instead of a failure mode.
        """
        ensure_accuracy(accuracy)
        if deadline is not None and deadline <= 0:
            raise PlanError(f"deadline must be > 0 seconds, got {deadline}")
        engine = resolve_backend_name(backend, workers) or "native"
        # the span keeps its historical name: trace consumers key on it
        with _trace.span("plan.rank", p=query.p, q=query.q,
                         accuracy=accuracy) as sp:
            if accuracy == "approx":
                plan = self._approx_plan(query, engine, layer, deadline)
                sp.annotate(chosen=plan.method)
                return plan
            plan = self._exact_plan(query, engine, workers, layer,
                                    deadline)
            cost = _cost(plan)
            if deadline is not None and cost > deadline:
                if accuracy == "auto":
                    plan = self._approx_plan(query, engine, layer,
                                             deadline)
                    sp.annotate(chosen=plan.method, tier="approx")
                    return plan
                log.warning(
                    "deadline infeasible: %s on %s prices %.3gs against "
                    "a %.3gs deadline (%dx%d)", plan.method, plan.backend,
                    cost, deadline, query.p, query.q)
                raise DeadlineExceededError(
                    f"exact plan ({plan.method} on {plan.backend}) "
                    f"prices {cost:.3g}s against a {deadline:.3g}s "
                    f"deadline; retry with accuracy='approx' or 'auto' "
                    f"to trade precision for latency")
            sp.annotate(chosen=plan.method)
            return plan

    def _exact_plan(self, query, engine: str, workers: int | None,
                    layer: str | None,
                    deadline: float | None) -> CountPlan:
        """``auto``'s exact plan: GBC on ``native``, priced only when a
        deadline has to be checked against it."""
        if engine != "native":
            raise PlanError(
                f"method='auto' runs GBC on 'native' only; on {engine!r} "
                f"name an explicit method ({_explicit_methods()})")
        mspec = get_method("GBC")
        plan = CountPlan(
            method=mspec.name, p=query.p, q=query.q, backend=engine,
            workers=workers, layer=layer,
            prepared=prepared_keys(mspec, self.graph, query, layer),
            source="auto",
            reason="auto on native runs GBC, the paper's method")
        return plan if deadline is None else self.priced(plan)

    def priced(self, plan: CountPlan) -> CountPlan:
        """``plan`` with its price filled in: ``predicted_seconds``, the
        ledger's observed and calibrated seconds, and the price's
        inputs (bound, rate, promising roots) in ``signals``.  An
        unpriced method comes back unchanged."""
        from repro.core.counts import BicliqueQuery

        query = BicliqueQuery(plan.p, plan.q)
        predicted, inputs = self._price(
            query, get_method(plan.method), plan.backend, plan.layer)
        if not inputs:
            return plan
        cell, calibrated = self._calibrate(query, plan.method,
                                           plan.backend, predicted)
        reason = (f"{plan.reason}; priced {predicted:.3g}s from a work "
                  f"bound of {inputs['bound']:.3g} at "
                  f"{inputs['rate']:.3g}/s")
        if calibrated is not None:
            reason += (f"; ledger-calibrated to {calibrated:.3g}s from "
                       f"{cell.observations} measured run(s)")
        return replace(
            plan, predicted_seconds=predicted,
            observed_seconds=None if cell is None
            else cell.observed_seconds,
            calibrated_seconds=calibrated, reason=reason, signals=inputs)

    def _approx_plan(self, query, engine: str, layer: str | None,
                     deadline: float | None) -> CountPlan:
        from repro.core.estimate import DEFAULT_SAMPLES

        candidates = [mspec for mspec in approx_candidates()
                      if layer is None or mspec.supports_layer]
        if not candidates:
            raise PlanError(f"no approximate method can run on backend "
                            f"{engine!r} with layer={layer!r}")
        mspec = candidates[0]
        full, inputs = self._price(query, mspec, engine, layer)
        population = max(inputs.get("population", 0), 1)
        # each sampled root costs its share of the whole search
        per_root = full / population
        if deadline is None:
            samples = DEFAULT_SAMPLES
        else:
            fits = population if per_root <= 0.0 \
                else int(deadline * DEADLINE_SAFETY / per_root)
            samples = max(MIN_APPROX_SAMPLES, min(fits, population))
        # the distinct-root cache bounds the searched roots
        predicted = per_root * min(samples, population)
        rel_error = 1.0 / samples ** 0.5 if samples < population else 0.0
        reason = (f"{samples}-sample HT estimate (seed 0), priced "
                  f"{predicted:.3g}s on {engine}")
        if deadline is not None:
            # the MIN_APPROX_SAMPLES floor can overshoot a deadline no
            # budget fits; say which happened
            reason += (
                f" within the {deadline:.3g}s deadline"
                if predicted <= deadline else
                f" (best effort: the {MIN_APPROX_SAMPLES}-sample floor "
                f"overruns the {deadline:.3g}s deadline)")
        return CountPlan(
            method=mspec.name, p=query.p, q=query.q,
            backend=engine, workers=None, layer=layer,
            prepared=prepared_keys(mspec, self.graph, query, layer),
            predicted_seconds=predicted,
            source="auto",
            reason=reason,
            signals={**inputs, "samples": samples,
                     "predicted_rel_error": rel_error},
            samples=samples,
            seed=0,
        )

    def predict(self, query, method: str, backend=None,
                workers: int | None = None,
                layer: str | None = None) -> float:
        """Priced seconds for one explicitly named method on the engine
        :meth:`repro.query.GraphSession.count` would run it on
        (``backend=None`` is ``sim``, as there), ledger-calibrated when
        its cell has history.

        What deadline admission uses for requests that pin a method,
        and what prices a dynamic graph's rebuild.  Unpriced methods
        (Basic and the ablation variants) predict 0.0, so a deadline
        always admits them.
        """
        mspec = get_method(method)
        engine = resolve_backend_name(backend, workers) or "sim"
        predicted, inputs = self._price(query, mspec, engine, layer)
        if not inputs:
            return predicted
        _, calibrated = self._calibrate(query, method, engine, predicted)
        return predicted if calibrated is None else calibrated

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Planner({self.graph!r})"

"""The planner behind ``method="auto"``.

On ``native`` — and whenever no engine is pinned — ``auto`` is a rule,
not a ranking: it runs GBC, the paper's method (§IV–V) and the fastest
exact counter measured on that engine, so nothing is probed to choose
it.  Only a deadline makes the planner price that plan.

On ``fast``, ``par`` and ``sim`` the winner still depends on the graph
and the (p, q) shape — the reason the paper's headline experiments
(Fig. 7/8, Tables III-V) compare five algorithms — so :class:`Planner`
ranks the registered methods the way the sampling-based selection in
the butterfly-estimation and near-clique-sampling lines does: probe a
few root search trees, extrapolate, price every method, pick the
cheapest:

1. **cheap graph statistics** (:func:`repro.graph.stats.compute_stats`,
   :func:`repro.graph.priority.wedge_mass`) bound the preparation cost;
2. **Definition-2 degeneracy signals** — the promising-root population
   and two-hop index sizes under the priority order — scope the search;
3. **root-sampling probes** (:func:`repro.core.estimate
   .sample_root_profile`) count merge comparisons on a seeded sample of
   roots and Horvitz-Thompson extrapolate total enumeration work, under
   both the priority order and Basic's id order;
4. each registered method's **cost hook** turns those
   :class:`~repro.plan.registry.CostSignals` into predicted headline
   seconds — device methods price theirs through the SIMT cost model
   (:mod:`repro.gpu.costmodel`).

The same signals price deadlines, approx sample budgets and the
dynamic-graph cutover on every engine.  Because the probe counts
*work* (comparisons, populations), never wall-clock, planner output is
bit-identical for a fixed seed: the same ranked plans, the same chosen
plan, run after run.
"""

from __future__ import annotations

from repro.engine.base import resolve_backend_name
from repro.errors import DeadlineExceededError, PlanError
from repro.graph.bipartite import LAYER_U, LAYER_V
from repro.graph.priority import select_layer, wedge_mass
from repro.graph.stats import cached_stats, graph_fingerprint
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.plan.ir import CountPlan
from repro.plan.registry import (
    CostSignals,
    MethodSpec,
    approx_candidates,
    auto_candidates,
    ensure_accuracy,
    get_method,
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


def _signal_summary(signals: CostSignals) -> dict:
    """The probe signals a plan records for ``plan explain``."""
    return {
        "population": signals.population,
        "basic_population": signals.basic_population,
        "comparisons": signals.comparisons,
        "basic_comparisons": signals.basic_comparisons,
        "mean_index_size": signals.mean_index_size,
        "est_count": signals.est_count,
        "wedge_ops": signals.wedge_ops,
        "degree_skew": signals.degree_skew,
        "anchored_layer": signals.anchored_layer,
    }


def _cost(plan: CountPlan) -> float:
    """What a plan is ranked and deadline-checked on: the ledger's
    calibrated seconds when the cell has a ratio, else the prediction."""
    return plan.calibrated_seconds if plan.calibrated_seconds is not None \
        else plan.predicted_seconds


class Planner:
    """Plans ``method="auto"`` queries on one graph.

    ``session`` (a :class:`repro.query.GraphSession`) lets probes reuse
    the graph's prepared state; ``samples`` and ``seed`` control the
    root-sampling probe (each planner memoises its probes per
    (p, q, layer), so a batch of same-shape queries probes once).
    ``spec`` is the device the SIMT cost model prices simulated-device
    candidates with.

    ``ledger`` (a :class:`repro.obs.ledger.CostLedger`) blends measured
    history into the exact-tier ranking: candidates whose (fingerprint,
    shape, method, backend) cell carries an observed/predicted ratio
    are re-priced as ``calibrated = predicted * ratio`` and ranked on
    that.  Candidate *counts* are unaffected — every exact method
    returns the same number — only the ordering may change.
    """

    def __init__(self, graph, spec=None, session=None, *,
                 samples: int = 8, seed: int = 0,
                 threads: int = 16, ledger=None) -> None:
        if session is not None:
            session.check_owns(graph)
            if spec is None:
                spec = session.spec
        self.graph = graph
        self.spec = spec
        self.session = session
        self.samples = int(samples)
        self.seed = int(seed)
        self.threads = int(threads)
        self.ledger = ledger
        self._stats = None
        self._fp: str | None = None
        self._probes: dict[tuple, object] = {}
        self._wedges: dict[str, float] = {}

    # -- signal gathering ----------------------------------------------
    def _fingerprint(self) -> str:
        if self._fp is None:
            self._fp = self.session.fingerprint if self.session is not None \
                else graph_fingerprint(self.graph)
        return self._fp

    def _sync(self) -> None:
        """Drop memoised signals if the graph content changed under us.

        A planner reused across an in-place mutation of its graph's
        arrays (or across a ``session.refresh()``) would otherwise keep
        serving the old fingerprint, stats and probe results.  Called
        whenever signals are gathered; costs one content hash when
        nothing changed.
        """
        fp = self.session.fingerprint if self.session is not None \
            else graph_fingerprint(self.graph)
        if fp != self._fp:
            self._fp = fp
            self._stats = None
            self._probes.clear()
            self._wedges.clear()

    def _graph_stats(self):
        if self._stats is None:
            self._stats = cached_stats(self.graph)
        return self._stats

    def _wedge_mass(self, layer: str) -> float:
        got = self._wedges.get(layer)
        if got is None:
            got = self._wedges[layer] = float(wedge_mass(self.graph, layer))
        return got

    def _probe(self, query, layer: str | None):
        from repro.core.estimate import sample_root_profile

        key = (query.p, query.q, layer)
        got = self._probes.get(key)
        if got is None:
            # a session probe also warms the session's prepared state
            got = self._probes[key] = sample_root_profile(
                self.graph, query, samples=self.samples, seed=self.seed,
                layer=layer, session=self.session)
        return got

    def signals(self, query, backend: str = "fast",
                workers: int | None = None,
                layer: str | None = None) -> CostSignals:
        """The :class:`~repro.plan.registry.CostSignals` for one query
        under one execution engine — deterministic for a fixed seed."""
        from repro.gpu.device import rtx_3090

        self._sync()
        stats = self._graph_stats()
        probe = self._probe(query, layer)
        anchored = probe.anchored_layer
        skew = stats.degree_skew_u if anchored == LAYER_U \
            else stats.degree_skew_v
        if anchored == LAYER_U:
            anchored_nu, anchored_nv = stats.num_u, stats.num_v
            opposite = LAYER_V
        else:
            anchored_nu, anchored_nv = stats.num_v, stats.num_u
            opposite = LAYER_U
        return CostSignals(
            p=query.p, q=query.q,
            backend=backend, workers=workers, threads=self.threads,
            anchored_layer=anchored,
            num_u=stats.num_u, num_v=stats.num_v,
            num_edges=stats.num_edges,
            anchored_num_u=anchored_nu, anchored_num_v=anchored_nv,
            degree_skew=skew,
            # the anchored prepare enumerates wedges through the layer
            # opposite the anchor; Basic's id build always walks the
            # original orientation's V side
            wedge_ops=self._wedge_mass(opposite),
            wedge_ops_id=self._wedge_mass(LAYER_V),
            population=probe.population,
            basic_population=probe.basic_population,
            comparisons=probe.comparisons,
            basic_comparisons=probe.basic_comparisons,
            merge_calls=probe.merge_calls,
            basic_merge_calls=probe.basic_merge_calls,
            max_root_comparisons=probe.max_root_comparisons,
            max_root_merge_calls=probe.max_root_merge_calls,
            mean_index_size=probe.mean_index_size,
            est_count=probe.est_count,
            device=self.spec or rtx_3090(),
        )

    # -- planning -------------------------------------------------------
    def rank(self, query, backend=None, workers: int | None = None,
             layer: str | None = None, *,
             accuracy: str = "exact",
             deadline: float | None = None) -> list[CountPlan]:
        """Every eligible candidate plan, cheapest predicted first.

        On ``native``, and with ``backend=None`` and no ``workers=``
        (the planner's free choice, which means ``native``), the exact
        tier is one plan: GBC on ``native``.  It is neither ranked nor
        probed, so its ``predicted_seconds`` is 0.0 — unless a
        ``deadline`` asks for a price, which :meth:`predict`'s cost
        path supplies (ledger-calibrated when the cell has history).
        Naming ``fast``, ``par`` or ``sim`` ranks every method *under*
        that engine from the probe; on ``sim`` the headline is
        simulated device seconds, so the device methods dominate.

        ``accuracy`` selects the tier: ``"exact"`` (default) ranks the
        exact counters and — when a ``deadline`` is given — raises
        :class:`~repro.errors.DeadlineExceededError` if even the best
        exact candidate's prediction blows it; ``"approx"`` ranks the
        sampling tier, its per-plan sample budget sized from the cost
        model so the predicted run fits the deadline; ``"auto"`` serves
        exact when it fits and falls back to the approx tier otherwise
        — the paper's per-request deadlines as a planning constraint
        instead of a failure mode.
        """
        ensure_accuracy(accuracy)
        if deadline is not None and deadline <= 0:
            raise PlanError(f"deadline must be > 0 seconds, got {deadline}")
        engine = resolve_backend_name(backend, workers) or "native"
        with _trace.span("plan.rank", p=query.p, q=query.q,
                         accuracy=accuracy) as sp:
            if accuracy == "approx":
                plans = self._approx_rank(query, engine, layer, deadline)
                sp.annotate(candidates=len(plans), chosen=plans[0].method)
                return plans
            if engine == "native":
                plans = [self._native_plan(query, layer, deadline)]
            else:
                plans = self._exact_rank(query, engine, workers, layer)
            best_cost = _cost(plans[0])
            if deadline is not None and best_cost > deadline:
                if accuracy == "auto":
                    plans = self._approx_rank(query, engine, layer,
                                              deadline)
                    sp.annotate(candidates=len(plans),
                                chosen=plans[0].method, tier="approx")
                    return plans
                log.warning(
                    "deadline infeasible: best exact plan %s on %s "
                    "predicts %.3gs against a %.3gs deadline (%dx%d)",
                    plans[0].method, plans[0].backend, best_cost,
                    deadline, query.p, query.q)
                raise DeadlineExceededError(
                    f"best exact plan ({plans[0].method} on "
                    f"{plans[0].backend}) predicts "
                    f"{best_cost:.3g}s against a "
                    f"{deadline:.3g}s deadline; retry with "
                    f"accuracy='approx' or 'auto' to trade precision "
                    f"for latency")
            sp.annotate(candidates=len(plans), chosen=plans[0].method)
            return plans

    def _native_plan(self, query, layer: str | None,
                     deadline: float | None) -> CountPlan:
        """``auto``'s exact plan on ``native``: always GBC, priced only
        when a deadline has to be checked against it."""
        mspec = get_method("GBC")
        rule = "auto on native runs GBC, the paper's method"
        if deadline is not None:
            return self._priced_plan(query, mspec, "native", None, layer,
                                     f"{rule}; ")
        return CountPlan(
            method=mspec.name, p=query.p, q=query.q, backend="native",
            workers=None, layer=layer,
            prepared=prepared_keys(mspec, self.graph, query, layer),
            source="auto", reason=f"{rule} (no ranking, no probe)")

    def _exact_rank(self, query, engine: str, workers: int | None,
                    layer: str | None) -> list[CountPlan]:
        plans = [self._priced_plan(query, mspec, engine, workers, layer)
                 for mspec in auto_candidates()
                 if (engine != "par" or mspec.supports_partitioned)
                 and (layer is None or mspec.supports_layer)]
        if not plans:
            raise PlanError(f"no registered method can run on backend "
                            f"{engine!r}")
        # a stable sort: ties keep registration order, so the ranking
        # stays total and deterministic
        plans.sort(key=_cost)
        return plans

    def _price(self, query, mspec: MethodSpec, engine: str,
               workers: int | None, layer: str | None):
        """One method's cost on one engine: ``(signals, predicted
        seconds, ledger cell or None)``."""
        signals = self.signals(query, backend=engine, workers=workers,
                               layer=layer)
        predicted = float(mspec.cost(signals))
        cell = None if self.ledger is None else self.ledger.lookup(
            self._fingerprint(), query.p, query.q, mspec.name, engine)
        return signals, predicted, cell

    def _priced_plan(self, query, mspec: MethodSpec, engine: str,
                     workers: int | None, layer: str | None,
                     why: str = "") -> CountPlan:
        signals, predicted, cell = self._price(query, mspec, engine,
                                               workers, layer)
        calibrated = None if cell is None or cell.ratio is None \
            else predicted * cell.ratio
        reason = (f"{why}predicted {predicted:.3g}s on {engine} from a "
                  f"{self.samples}-root probe (seed {self.seed})")
        if calibrated is not None:
            reason += (f"; ledger-calibrated to {calibrated:.3g}s from "
                       f"{cell.observations} measured run(s)")
        return CountPlan(
            method=mspec.name, p=query.p, q=query.q,
            backend=engine, workers=workers, layer=layer,
            prepared=prepared_keys(mspec, self.graph, query, layer),
            predicted_seconds=predicted,
            observed_seconds=None if cell is None
            else cell.observed_seconds,
            calibrated_seconds=calibrated,
            source="auto",
            reason=reason,
            signals=_signal_summary(signals),
        )

    def _approx_rank(self, query, engine: str, layer: str | None,
                     deadline: float | None) -> list[CountPlan]:
        from repro.core.estimate import approx_cost

        if engine == "par":
            # the estimator's root loop is serial; pricing it with the
            # sharded engine's speedup would be a lie
            raise PlanError("no approximate method can run on backend "
                            "'par'; the approx tier is serial "
                            "(fast/sim/native)")
        signals = self.signals(query, backend=engine, layer=layer)
        plans = []
        for mspec in approx_candidates():
            if layer is not None and not mspec.supports_layer:
                continue
            samples = self._approx_budget(signals, deadline)
            predicted = float(approx_cost(signals, samples))
            population = max(signals.population, 1)
            rel_error = (1.0 / samples ** 0.5
                         if samples < population else 0.0)
            reason = (f"{samples}-sample HT estimate (seed "
                      f"{self.seed}), predicted {predicted:.3g}s on "
                      f"{engine}")
            if deadline is not None:
                # the MIN_APPROX_SAMPLES floor can overshoot a
                # deadline no budget fits; say which happened
                reason += (
                    f" within the {deadline:.3g}s deadline"
                    if predicted <= deadline else
                    f" (best effort: the {MIN_APPROX_SAMPLES}-sample "
                    f"floor overruns the {deadline:.3g}s deadline)")
            plans.append(CountPlan(
                method=mspec.name, p=query.p, q=query.q,
                backend=engine, workers=None, layer=layer,
                prepared=prepared_keys(mspec, self.graph, query, layer),
                predicted_seconds=predicted,
                source="auto",
                reason=reason,
                signals={**_signal_summary(signals),
                         "samples": samples,
                         "predicted_rel_error": rel_error},
                samples=samples,
                seed=self.seed,
            ))
        if not plans:
            raise PlanError(f"no approximate method can run on backend "
                            f"{engine!r} with layer={layer!r}")
        plans.sort(key=lambda plan: plan.predicted_seconds)
        return plans

    def _approx_budget(self, signals: CostSignals,
                       deadline: float | None) -> int:
        """Sample budget sized so the predicted estimate fits the
        deadline (the estimator's default budget when there is none)."""
        from repro.core.estimate import DEFAULT_SAMPLES

        population = max(signals.population, 1)
        if deadline is None:
            return DEFAULT_SAMPLES
        per_root = signals.enum_seconds(signals.merge_calls,
                                        signals.comparisons) / population
        budget = deadline * DEADLINE_SAFETY \
            - signals.priority_prepare_seconds()
        if per_root <= 0.0:
            samples = population
        elif budget <= 0.0:
            samples = MIN_APPROX_SAMPLES
        else:
            samples = int(budget / per_root)
        return max(MIN_APPROX_SAMPLES, min(samples, population))

    def plan(self, query, backend=None, workers: int | None = None,
             layer: str | None = None, *,
             accuracy: str = "exact",
             deadline: float | None = None) -> CountPlan:
        """The cheapest candidate of :meth:`rank` — what ``method="auto"``
        executes."""
        return self.rank(query, backend=backend, workers=workers,
                         layer=layer, accuracy=accuracy,
                         deadline=deadline)[0]

    def predict(self, query, method: str, backend=None,
                workers: int | None = None,
                layer: str | None = None) -> float:
        """Predicted headline seconds for one explicitly named method,
        ledger-calibrated when its cell has history.

        What deadline admission uses for requests that pin a method
        instead of planning, and what prices a dynamic graph's rebuild:
        methods without a cost hook (the ablation variants) predict
        0.0, i.e. are always admitted.
        """
        mspec = get_method(method)
        if mspec.cost is None:
            return 0.0
        engine = resolve_backend_name(backend, workers) or "fast"
        _, predicted, cell = self._price(query, mspec, engine, workers,
                                         layer)
        if cell is not None and cell.ratio is not None:
            return predicted * cell.ratio
        return predicted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Planner({self.graph!r}, samples={self.samples}, "
                f"seed={self.seed})")

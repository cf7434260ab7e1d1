"""repro.plan — the cost-based query planner and method registry.

One plan/execute layer behind every dispatcher.  The paper evaluates
five algorithms because no single one wins on every graph and (p, q)
shape; this package makes that selection mechanical instead of manual:

* :mod:`repro.plan.registry` — every counter in :mod:`repro.core`
  self-registers a :class:`MethodSpec` (entry point, capabilities, cost
  hook), so the CLI, bench runner, batch engine, and serving scheduler
  share one source of truth for what ``method=`` may name.
* :class:`CountPlan` (:mod:`repro.plan.ir`) — the frozen, serialisable
  decision: method, backend, workers, anchored layer, the prepared
  state the run requires, and the predicted headline cost.
* :class:`Planner` (:mod:`repro.plan.planner`) — on ``native``, the
  free choice, ``auto`` is GBC, with no probe; on ``fast``/``par``/
  ``sim`` it prices every registered method from cheap graph
  statistics, Definition-2 degeneracy signals, a seeded root-sampling
  probe, and the SIMT cost model, then ranks the candidates.
  Deterministic for a fixed seed.
* :func:`execute_plan` (:mod:`repro.plan.execute`) — the ONLY place a
  method name turns into a counter call.

>>> from repro import BicliqueQuery, random_bipartite
>>> from repro.plan import plan_query, execute_plan
>>> g = random_bipartite(num_u=30, num_v=20, num_edges=200, seed=7)
>>> plan = plan_query(g, BicliqueQuery(2, 3), method="auto")
>>> plan.source, plan.method, plan.backend
('auto', 'GBC', 'native')
>>> execute_plan(plan, g).count     # bit-identical to every explicit method
528

Explicit methods plan trivially (no probe) and execute through the same
single dispatch site:

>>> explicit = plan_query(g, BicliqueQuery(2, 3), method="BCL",
...                       backend="fast")
>>> execute_plan(explicit, g).count
528
"""

from repro.plan.execute import (execute_plan, explicit_plan, plan_query,
                                warm_session)
from repro.plan.ir import CountPlan
from repro.plan.planner import Planner, prepared_keys
from repro.plan.registry import (ACCURACIES, AUTO, CostSignals, MethodSpec,
                                 approx_candidates, auto_candidates,
                                 ensure_accuracy, ensure_known, get_method,
                                 method_names, register_method)

__all__ = [
    "ACCURACIES",
    "AUTO",
    "CostSignals",
    "CountPlan",
    "MethodSpec",
    "Planner",
    "approx_candidates",
    "auto_candidates",
    "ensure_accuracy",
    "ensure_known",
    "execute_plan",
    "explicit_plan",
    "get_method",
    "method_names",
    "plan_query",
    "prepared_keys",
    "register_method",
    "warm_session",
]

"""repro.plan — the query planner and method registry.

One plan/execute layer behind every dispatcher:

* :mod:`repro.plan.registry` — every counter in :mod:`repro.core`
  self-registers a :class:`MethodSpec` (entry point, capabilities,
  per-engine rates), so the CLI, bench runner, batch engine, and
  serving scheduler share one source of truth for what ``method=`` may
  name.
* :class:`CountPlan` (:mod:`repro.plan.ir`) — the frozen, serialisable
  decision: method, backend, workers, anchored layer, the prepared
  state the run requires, and its price.
* :class:`Planner` (:mod:`repro.plan.planner`) — ``auto`` is GBC on
  ``native``, the paper's method on the fastest engine; any other
  engine makes ``auto`` a :class:`~repro.errors.PlanError`.  Deadlines
  are priced as a work bound over the prepared arrays divided by the
  method's rate, calibrated by the cost ledger.
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

Explicit methods plan trivially and execute through the same single
dispatch site:

>>> explicit = plan_query(g, BicliqueQuery(2, 3), method="BCL",
...                       backend="fast")
>>> execute_plan(explicit, g).count
528
"""

from repro.plan.execute import (execute_plan, explicit_plan, plan_query,
                                warm_session)
from repro.plan.ir import CountPlan
from repro.plan.planner import Planner, prepared_keys
from repro.plan.registry import (ACCURACIES, AUTO, MethodSpec,
                                 approx_candidates, ensure_accuracy,
                                 ensure_known, get_method, method_names,
                                 register_method)

__all__ = [
    "ACCURACIES",
    "AUTO",
    "CountPlan",
    "MethodSpec",
    "Planner",
    "approx_candidates",
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

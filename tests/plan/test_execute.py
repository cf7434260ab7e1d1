"""execute_plan: the single dispatch site and its contracts."""

import pytest

from repro.core.counts import BicliqueQuery
from repro.errors import PlanError, QueryError, UnknownMethodError
from repro.graph.generators import random_bipartite
from repro.plan import (CountPlan, execute_plan, explicit_plan, plan_query,
                        warm_session)

GRAPH = random_bipartite(30, 25, 140, seed=11)
QUERY = BicliqueQuery(2, 2)


class TestExplicitPlans:
    def test_default_backend_is_native(self):
        plan = explicit_plan(GRAPH, QUERY, "GBC")
        assert plan.backend == "native"
        assert plan.source == "explicit"
        assert plan.predicted_seconds == 0.0

    def test_workers_imply_native(self):
        plan = explicit_plan(GRAPH, QUERY, "BCL", workers=2)
        assert plan.backend == "native" and plan.workers == 2
        assert execute_plan(plan, GRAPH).backend == "native"

    def test_fast_with_workers_rejected(self):
        with pytest.raises(QueryError, match="forks the 'native'"):
            explicit_plan(GRAPH, QUERY, "BCL", backend="fast", workers=2)

    def test_unknown_method_fails_before_execution(self):
        with pytest.raises(UnknownMethodError):
            explicit_plan(GRAPH, QUERY, "FOO")

    def test_requirements_follow_the_method(self):
        basic = explicit_plan(GRAPH, QUERY, "Basic")
        gbc = explicit_plan(GRAPH, QUERY, "GBC")
        assert any(k.startswith("two_hop_id:") for k in basic.prepared)
        assert any(k.startswith("htb:") for k in gbc.prepared)


class TestExecution:
    def test_executes_without_query_argument(self):
        plan = explicit_plan(GRAPH, QUERY, "BCL", backend="fast")
        direct = execute_plan(plan, GRAPH)
        assert direct.count == execute_plan(plan, GRAPH, QUERY).count

    def test_query_mismatch_rejected(self):
        plan = explicit_plan(GRAPH, QUERY, "BCL")
        with pytest.raises(PlanError, match=r"\(3, 3\)"):
            execute_plan(plan, GRAPH, BicliqueQuery(3, 3))

    def test_variant_options_default_from_registry(self):
        result = execute_plan(explicit_plan(GRAPH, QUERY, "GBC-NH"), GRAPH)
        assert result.algorithm == "GBC-NH"

    def test_backend_instance_override_wins(self):
        from repro.engine.fast import FastBackend

        plan = explicit_plan(GRAPH, QUERY, "GBC")     # plans for "native"
        result = execute_plan(plan, GRAPH, backend=FastBackend())
        assert result.backend == "fast"

    def test_auto_plan_end_to_end(self):
        plan = plan_query(GRAPH, QUERY, method="auto")
        auto = execute_plan(plan, GRAPH)
        explicit = execute_plan(explicit_plan(GRAPH, QUERY, plan.method,
                                              backend=plan.backend), GRAPH)
        assert auto.count == explicit.count


class TestWarmSession:
    def test_warms_exactly_the_required_state(self):
        from repro.query import GraphSession

        session = GraphSession(GRAPH)
        warm_session(session, explicit_plan(GRAPH, QUERY, "GBC"))
        stats = session.stats
        assert stats.wedge_builds == 1
        assert stats.order_builds == 1
        assert stats.index_builds == 1
        assert stats.htb_adj_builds == 1
        assert stats.htb_two_hop_builds == 1
        # warming is idempotent: nothing rebuilds
        warm_session(session, explicit_plan(GRAPH, QUERY, "GBC"))
        assert session.stats.wedge_builds == 1

    def test_warmed_run_builds_nothing_new(self):
        from repro.query import GraphSession

        session = GraphSession(GRAPH)
        plan = explicit_plan(GRAPH, QUERY, "BCL", backend="fast")
        warm_session(session, plan)
        before = dict(session.stats.as_dict())
        result = execute_plan(plan, GRAPH, session=session)
        after = session.stats.as_dict()
        assert result.count == execute_plan(plan, GRAPH).count
        for key in ("wedge_builds", "order_builds", "index_builds"):
            assert after[key] == before[key]

    def test_unknown_requirement_kind_rejected(self):
        from repro.query import GraphSession

        bogus = CountPlan(method="BCL", p=2, q=2,
                          prepared=("nonsense:U:2",))
        with pytest.raises(PlanError, match="nonsense"):
            warm_session(GraphSession(GRAPH), bogus)

    def test_plan_must_carry_resolved_method(self):
        with pytest.raises(PlanError, match="auto"):
            CountPlan(method="auto", p=2, q=2)

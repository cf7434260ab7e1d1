"""Planner properties: auto == explicit counts, one price, round-trip.

The property pinned first: ``method="auto"`` is GBC on ``native`` and
must be *bit-identical* to every explicit method there — the planner may only ever change how fast an answer
arrives, never the answer.  Any other engine makes ``auto`` a typed
:class:`~repro.errors.PlanError`.  Prices are ``bound / rate`` over the
prepared arrays: deterministic, identical across planners and between
session and sessionless planners, and computed without running any
search.
"""

import pytest

from repro.bench.runner import run_method
from repro.core.counts import BicliqueQuery
from repro.errors import PlanError, QueryError
from repro.graph.generators import (planted_bicliques, power_law_bipartite,
                                    random_bipartite)
from repro.plan import CountPlan, Planner, execute_plan, plan_query

GRAPHS = {
    "random": random_bipartite(30, 25, 120, seed=3),
    "power-law": power_law_bipartite(40, 30, 200, seed=5),
    "planted": planted_bicliques(20, 20, [(4, 3), (3, 4)], noise_edges=30,
                                 seed=1),
}
QUERIES = [BicliqueQuery(2, 2), BicliqueQuery(3, 2), BicliqueQuery(2, 3)]


def _refuse_searches(monkeypatch):
    """Make every per-root search and frontier raise, wherever the
    counters bound their names."""
    import repro.core.bcl as bcl
    import repro.core.estimate as estimate
    import repro.core.frontier as frontier
    import repro.core.gbc as gbc
    import repro.core.gbl as gbl

    def refuse(*args, **kwargs):
        raise AssertionError("pricing must not run a search")

    for module, name in ((bcl, "count_root"), (estimate, "count_root"),
                         (frontier, "csr_frontier_count"),
                         (frontier, "htb_frontier_count"),
                         (gbc, "csr_frontier_count"),
                         (gbc, "htb_frontier_count"),
                         (gbl, "csr_frontier_count")):
        monkeypatch.setattr(module, name, refuse)


class TestAutoMatchesExplicit:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("backend", ["sim", "fast", "native",
                                         "native-w2"])
    def test_auto_count_bit_identical(self, graph_name, backend):
        """On native, with or without workers, auto counts exactly what
        every explicit method counts; on any other engine it refuses,
        naming the methods."""
        graph = GRAPHS[graph_name]
        workers = 2 if backend == "native-w2" else None
        backend = backend.split("-")[0]
        for query in QUERIES:
            if backend != "native":
                with pytest.raises(PlanError, match="GBC"):
                    run_method("auto", graph, query, backend=backend)
                continue
            auto = run_method("auto", graph, query, backend=backend,
                              workers=workers)
            for method in ("Basic", "BCL", "BCLP", "GBL", "GBC"):
                explicit = run_method(method, graph, query, backend=backend,
                                      workers=workers)
                assert auto.count == explicit.count, (
                    f"auto ({auto.algorithm}) disagrees with {method} on "
                    f"{graph_name} {query} [{backend}]")

    def test_auto_resolves_to_a_registered_candidate(self):
        plan = plan_query(GRAPHS["random"], QUERIES[0], method="auto",
                          deadline=1e3)
        assert plan.method == "GBC"
        assert plan.source == "auto"
        assert plan.predicted_seconds > 0


class TestDeterminism:
    def test_ranked_plans_stable_for_fixed_seed(self):
        """The priced plan (what replaced the seeded ranking) is
        identical across planners: the bound has no random input."""
        graph = GRAPHS["power-law"]
        query = BicliqueQuery(3, 2)
        first = Planner(graph).plan(query, deadline=1e3)
        second = Planner(graph).plan(query, deadline=1e3)
        assert first.as_dict() == second.as_dict()
        assert first.predicted_seconds > 0

    def test_chosen_plan_stable_across_planners(self):
        graph = GRAPHS["random"]
        query = BicliqueQuery(2, 3)
        plans = [Planner(graph).plan(query) for _ in range(3)]
        assert all(p == plans[0] for p in plans)

    def test_session_probe_matches_sessionless(self):
        """A session planner prices from the session's cached arrays,
        a sessionless one prepares afresh; the price is the same."""
        from repro.query import GraphSession

        graph = GRAPHS["power-law"]
        for query in QUERIES:
            bare = Planner(graph)
            warm = Planner(graph, session=GraphSession(graph))
            assert warm.plan(query, deadline=1e3).as_dict() == \
                bare.plan(query, deadline=1e3).as_dict()
            for method in ("BCL", "GBL", "GBC", "approx"):
                for backend in ("sim", "fast", "native"):
                    assert warm.predict(query, method, backend=backend) \
                        == bare.predict(query, method, backend=backend)


class TestRoundTrip:
    def test_explain_round_trip(self):
        """A plan survives as_dict -> from_dict exactly (what ``plan
        explain`` output relies on)."""
        for query in QUERIES:
            plan = plan_query(GRAPHS["random"], query, method="auto")
            assert CountPlan.from_dict(plan.as_dict()) == plan

    def test_round_tripped_plan_executes_identically(self):
        graph = GRAPHS["planted"]
        query = BicliqueQuery(2, 2)
        plan = plan_query(graph, query, method="auto")
        again = CountPlan.from_dict(plan.as_dict())
        assert execute_plan(again, graph, query).count == \
            execute_plan(plan, graph, query).count

    def test_unknown_keys_rejected(self):
        plan = plan_query(GRAPHS["random"], QUERIES[0], method="GBC")
        data = plan.as_dict()
        data["surprise"] = 1
        with pytest.raises(PlanError, match="surprise"):
            CountPlan.from_dict(data)


class TestEngineChoice:
    def test_free_choice_prefers_uninstrumented(self):
        plan = Planner(GRAPHS["random"]).plan(BicliqueQuery(2, 2))
        # the free choice is native, never the instrumented simulated
        # device
        assert plan.backend == "native"

    def test_free_choice_is_gbc_on_native_without_a_probe(
            self, monkeypatch):
        """On native, and with no engine pinned, auto is one plan:
        GBC on native, chosen by rule and unpriced without a deadline,
        so no search runs to plan it."""
        _refuse_searches(monkeypatch)
        for query in QUERIES:
            planner = Planner(GRAPHS["power-law"])
            for plan in (planner.plan(query, backend="native"),
                         planner.plan(query)):
                assert (plan.method, plan.backend) == ("GBC", "native")
                assert plan.source == "auto"
                assert plan.predicted_seconds == 0.0

    @pytest.mark.parametrize("backend, workers", [
        ("sim", None), ("fast", None)])
    def test_auto_off_native_is_a_plan_error(self, backend, workers):
        """Only native has a rule; pinning another engine names the
        explicit methods instead."""
        from repro.query import GraphSession

        graph, query = GRAPHS["random"], BicliqueQuery(2, 2)
        for accuracy in ("exact", "auto"):
            with pytest.raises(PlanError) as err:
                Planner(graph).plan(query, backend=backend,
                                    workers=workers, accuracy=accuracy)
            for method in ("Basic", "BCL", "BCLP", "GBL", "GBC"):
                assert method in str(err.value)
        with pytest.raises(PlanError, match="GBC"):
            GraphSession(graph).count(query, "auto", backend=backend,
                                      workers=workers)

    def test_workers_imply_native(self):
        """workers= forks native, so auto plans GBC there with those
        workers, at native's price."""
        planner = Planner(GRAPHS["random"])
        query = BicliqueQuery(2, 2)
        for backend in (None, "native"):
            plan = planner.plan(query, backend=backend, workers=2,
                                deadline=1e3)
            assert (plan.method, plan.backend, plan.workers) \
                == ("GBC", "native", 2)
            assert plan.predicted_seconds == planner.predict(
                query, "GBC", backend="native") > 0

    def test_sim_with_workers_rejected(self):
        with pytest.raises(QueryError, match="one process"):
            Planner(GRAPHS["random"]).plan(BicliqueQuery(2, 2),
                                           backend="sim", workers=2)

    def test_fast_with_workers_rejected(self):
        """Only native forks: fast is the one-process recursion, so
        neither the plan nor the price accepts workers= with it."""
        planner = Planner(GRAPHS["random"])
        query = BicliqueQuery(2, 2)
        with pytest.raises(QueryError, match="one process"):
            planner.plan(query, backend="fast", workers=2)
        with pytest.raises(QueryError, match="one process"):
            planner.predict(query, "GBC", backend="fast", workers=2)

    def test_pinned_layer_excludes_basic(self):
        """A pinned layer is planned and priced on that layer."""
        planner = Planner(GRAPHS["random"])
        query = BicliqueQuery(2, 2)
        plan = planner.plan(query, layer="V", deadline=1e3)
        assert (plan.method, plan.layer) == ("GBC", "V")
        assert all(key.split(":")[1] == "V" for key in plan.prepared)
        assert plan.signals["bound"] == planner.bound(query, "V")[0]


class TestPrice:
    """The one price: bound / rate over the prepared arrays."""

    def test_edited_graph_gets_a_new_bound(self):
        """A planner held across an in-place edit of its graph's arrays
        prices the new content (see also tests/query/test_staleness.py
        for the full staleness layer)."""
        import numpy as np

        graph = random_bipartite(22, 18, 90, seed=44)
        donor = random_bipartite(22, 18, 90, seed=45)
        query = BicliqueQuery(2, 2)
        planner = Planner(graph)
        before = planner.bound(query)
        for name in ("u_offsets", "u_neighbors", "v_offsets",
                     "v_neighbors"):
            np.copyto(getattr(graph, name), getattr(donor, name))
        after = planner.bound(query)
        assert after == Planner(donor).bound(query) != before
        assert planner.predict(query, "GBC", backend="native") == \
            Planner(donor).predict(query, "GBC", backend="native")

    def test_session_price_warms_prepared_state(self):
        """A session planner prices through its session: the bound
        reads (and, cold, builds) the priority-order state the count
        reads, and nothing else — no id-order index, no HTB."""
        from repro.query import GraphSession

        graph = random_bipartite(22, 18, 90, seed=43)
        session = GraphSession(graph)
        Planner(graph, session=session).predict(BicliqueQuery(2, 2),
                                                "GBC", backend="native")
        stats = session.stats
        assert (stats.wedge_builds, stats.order_builds,
                stats.index_builds) == (1, 1, 1)
        assert stats.htb_adj_builds == stats.htb_two_hop_builds == 0

    def test_pricing_runs_no_search_and_no_id_index(self, monkeypatch):
        """Pricing reads arrays; it never runs a per-root search or a
        frontier, and never builds Basic's id-order index."""
        from repro.dynamic import DynamicGraphSession
        from repro.obs import tracing
        from repro.query import GraphSession

        graph = power_law_bipartite(60, 50, 400, seed=9)
        query = BicliqueQuery(3, 3)
        # track's baseline count runs GBC on fast, outside both the
        # frontier and count_root; only its rebuild price is new work
        dyn = DynamicGraphSession.from_graph(graph)
        _refuse_searches(monkeypatch)
        session = GraphSession(graph)
        planner = Planner(graph, session=session)
        with tracing() as rec:
            assert planner.predict(query, "GBC", backend="native") > 0
            plan = planner.plan(query, deadline=1e3)
            assert plan.predicted_seconds > 0
            assert Planner(graph).plan(query, deadline=1e3) == plan
            dyn.track(3, 3)
        assert dyn._rebuild_seconds[(3, 3)] > 0
        assert session.stats.index_builds == 1      # no two_hop_id
        assert "prepare.two_hop_id" not in rec.names()

    @pytest.mark.parametrize("backend", ["sim", "fast", "native"])
    def test_price_is_bound_over_rate(self, backend):
        from repro.plan import get_method

        planner = Planner(GRAPHS["power-law"])
        for query in QUERIES:
            bound, _ = planner.bound(query)
            for method in ("BCL", "BCLP", "GBL", "GBC"):
                rate = get_method(method).rates[backend]
                assert planner.predict(query, method, backend=backend) \
                    == bound / rate
            # the default engine is the one GraphSession.count runs: sim
            assert planner.predict(query, "GBC") == \
                planner.predict(query, "GBC", backend="sim")


class TestNativeRule:
    """``auto`` on native is GBC: same work as the explicit request,
    priced only for a deadline; the scalar methods share one rate, the
    same on native as on fast, and Basic is unpriced."""

    def test_session_auto_does_exactly_what_explicit_gbc_does(self):
        from repro.query import GraphSession

        graph = GRAPHS["power-law"]
        for query in QUERIES:
            auto_session, gbc_session = GraphSession(graph), \
                GraphSession(graph)
            auto = auto_session.count(query, "auto", backend="native")
            gbc = gbc_session.count(query, "GBC", backend="native")
            assert (auto.algorithm, auto.count) == ("GBC", gbc.count)
            assert auto_session.stats.as_dict() == \
                gbc_session.stats.as_dict()

    @pytest.mark.parametrize("method", ["Basic", "BCL", "BCLP", "approx"])
    def test_scalar_methods_get_fast_prices_on_native(self, method):
        """BCL, BCLP and the estimator all search with count_root, which
        runs the same code on native as on fast: one scalar rate."""
        from repro.core.bcl import SCALAR_RATES

        planner = Planner(GRAPHS["power-law"])
        for query in QUERIES:
            native = planner.predict(query, method, backend="native")
            assert native == planner.predict(query, method, backend="fast")
            if method == "Basic":
                assert native == 0.0        # id order: unpriced
            else:
                assert native == \
                    planner.bound(query)[0] / SCALAR_RATES["native"] > 0

    def test_deadline_prices_the_rule_plan(self):
        graph = GRAPHS["power-law"]
        query = BicliqueQuery(3, 2)
        plan = Planner(graph).plan(query, backend="native", deadline=1e3)
        assert (plan.method, plan.backend) == ("GBC", "native")
        assert plan.predicted_seconds == \
            Planner(graph).predict(query, "GBC", backend="native") > 0

    def test_infeasible_deadline_raises_or_falls_back(self):
        from repro.errors import DeadlineExceededError
        from repro.query import GraphSession

        graph = GRAPHS["power-law"]
        query = BicliqueQuery(2, 2)
        for backend in ("native", None):
            with pytest.raises(DeadlineExceededError, match="GBC on native"):
                Planner(graph).plan(query, backend=backend,
                                    deadline=1e-9)
            fallback = Planner(graph).plan(query, backend=backend,
                                           accuracy="auto", deadline=1e-9)
            assert (fallback.method, fallback.backend) == \
                ("approx", "native")
        session = GraphSession(graph)
        with pytest.raises(DeadlineExceededError):
            session.count(query, "auto", backend="native", deadline=1e-9)
        served = session.count(query, "auto", backend="native",
                               accuracy="auto", deadline=1e-9)
        assert served.algorithm == "approx"
        assert "ci95" in served.extras

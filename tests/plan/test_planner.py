"""Planner properties: auto == explicit counts, determinism, round-trip.

The golden-graph property the acceptance criteria pin: ``method="auto"``
must be *bit-identical* to every explicit method on every backend — the
planner may only ever change how fast an answer arrives, never the
answer — and its output (the ranked candidate list and the chosen plan)
must be deterministic for a fixed probe seed.
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


class TestAutoMatchesExplicit:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("backend", ["sim", "fast", "par", "native"])
    def test_auto_count_bit_identical(self, graph_name, backend):
        graph = GRAPHS[graph_name]
        workers = 2 if backend == "par" else None
        for query in QUERIES:
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
                          backend="fast")
        assert plan.method in ("Basic", "BCL", "BCLP", "GBL", "GBC")
        assert plan.source == "auto"
        assert plan.predicted_seconds > 0


class TestDeterminism:
    def test_ranked_plans_stable_for_fixed_seed(self):
        graph = GRAPHS["power-law"]
        query = BicliqueQuery(3, 2)
        first = Planner(graph, seed=7).rank(query)
        second = Planner(graph, seed=7).rank(query)
        assert [p.as_dict() for p in first] == [p.as_dict() for p in second]

    def test_chosen_plan_stable_across_planners(self):
        graph = GRAPHS["random"]
        query = BicliqueQuery(2, 3)
        plans = [Planner(graph, seed=0).plan(query) for _ in range(3)]
        assert all(p == plans[0] for p in plans)

    def test_ranking_is_total_and_sorted(self):
        ranked = Planner(GRAPHS["random"]).rank(BicliqueQuery(2, 2),
                                                backend="fast")
        predictions = [p.predicted_seconds for p in ranked]
        assert predictions == sorted(predictions)
        # every exact method appears exactly once, on the named engine
        assert sorted(p.method for p in ranked) == \
            ["BCL", "BCLP", "Basic", "GBC", "GBL"]
        assert {p.backend for p in ranked} == {"fast"}

    def test_session_probe_matches_sessionless(self):
        from repro.query import GraphSession

        graph = GRAPHS["power-law"]
        query = BicliqueQuery(2, 2)
        bare = Planner(graph, seed=0).plan(query, backend="fast")
        session = GraphSession(graph)
        warm = Planner(graph, session=session, seed=0).plan(query,
                                                            backend="fast")
        assert warm.as_dict() == bare.as_dict()


class TestRoundTrip:
    def test_explain_round_trip(self):
        """A plan survives as_dict -> from_dict exactly (what ``plan
        explain`` output and BENCH_plan.json rely on)."""
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
        GBC on native, chosen by rule, so the probe never runs."""
        import repro.core.estimate as estimate

        def refuse(*args, **kwargs):
            raise AssertionError("the native rule must not probe")

        monkeypatch.setattr(estimate, "sample_root_profile", refuse)
        for query in QUERIES:
            planner = Planner(GRAPHS["power-law"])
            for ranked in (planner.rank(query, backend="native"),
                           planner.rank(query)):
                assert len(ranked) == 1
                plan = ranked[0]
                assert (plan.method, plan.backend) == ("GBC", "native")
                assert plan.source == "auto"
                assert plan.predicted_seconds == 0.0

    def test_sim_backend_prefers_the_device_methods(self):
        """On the instrumented engine the headline is simulated device
        seconds — the paper's GBC must dominate the CPU methods."""
        ranked = Planner(GRAPHS["power-law"]).rank(BicliqueQuery(3, 2),
                                                   backend="sim")
        assert ranked[0].method == "GBC"
        assert ranked[1].method == "GBL"

    def test_workers_imply_par(self):
        plan = Planner(GRAPHS["random"]).plan(BicliqueQuery(2, 2),
                                              workers=2)
        assert plan.backend == "par"
        assert plan.workers == 2

    def test_fast_with_workers_priced_as_par(self):
        """backend='fast' + workers resolves to the sharded engine at
        execution time (resolve_backend's upgrade), so the planner must
        price and label it as 'par' — fork overhead included."""
        planner = Planner(GRAPHS["random"])
        query = BicliqueQuery(2, 2)
        upgraded = planner.plan(query, backend="fast", workers=2)
        serial = planner.plan(query, backend="fast")
        assert upgraded.backend == "par"
        assert upgraded.predicted_seconds > serial.predicted_seconds
        assert execute_plan(upgraded, GRAPHS["random"]).backend == "par"

    def test_sim_with_workers_rejected(self):
        with pytest.raises(QueryError, match="serial"):
            Planner(GRAPHS["random"]).rank(BicliqueQuery(2, 2),
                                           backend="sim", workers=2)

    def test_pinned_layer_excludes_basic(self):
        ranked = Planner(GRAPHS["random"]).rank(BicliqueQuery(2, 2),
                                                layer="V")
        assert all(p.method != "Basic" for p in ranked)
        assert all(p.layer == "V" for p in ranked)


class TestSignalCaches:
    """Planners memoise per-graph signals and re-sync on content change."""

    def test_stats_cached_by_content(self):
        from repro.graph.stats import cached_stats

        graph = random_bipartite(22, 18, 90, seed=42)
        assert cached_stats(graph) is cached_stats(graph)

    def test_reused_planner_reprobes_after_in_place_edit(self, monkeypatch):
        """One planner held across an in-place mutation of its graph's
        arrays must re-sync: the old probe memo is dropped and the new
        content is probed exactly once (see also
        tests/query/test_staleness.py for the full staleness layer)."""
        import numpy as np

        import repro.core.estimate as estimate

        graph = random_bipartite(22, 18, 90, seed=44)
        donor = random_bipartite(22, 18, 90, seed=45)
        query = BicliqueQuery(2, 2)
        calls = {"n": 0}
        real = estimate.sample_root_profile

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(estimate, "sample_root_profile", counting)
        planner = Planner(graph)
        planner.plan(query, backend="fast")
        planner.plan(query, backend="fast")      # memoised: no new probe
        assert calls["n"] == 1
        for name in ("u_offsets", "u_neighbors", "v_offsets",
                     "v_neighbors"):
            np.copyto(getattr(graph, name), getattr(donor, name))
        changed = planner.plan(query, backend="fast")   # re-syncs
        assert calls["n"] == 2
        assert changed.as_dict() == \
            Planner(graph).plan(query, backend="fast").as_dict()

    def test_session_probe_still_warms_prepared_state(self):
        """A session planner probes through its session, so the probe
        doubles as the session's prepared-state warmer."""
        from repro.query import GraphSession

        graph = random_bipartite(22, 18, 90, seed=43)
        session = GraphSession(graph)
        Planner(graph, session=session).plan(BicliqueQuery(2, 2),
                                             backend="fast")
        assert session.stats.wedge_builds >= 1


class TestNativeRule:
    """``auto`` on native is GBC: same work as the explicit request,
    priced only for a deadline, with the scalar methods at fast's
    prices."""

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
        planner = Planner(GRAPHS["power-law"])
        for query in QUERIES:
            assert planner.predict(query, method, backend="native") == \
                planner.predict(query, method, backend="fast")

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

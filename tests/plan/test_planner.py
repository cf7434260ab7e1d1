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
        plan = plan_query(GRAPHS["random"], QUERIES[0], method="auto")
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
        ranked = Planner(GRAPHS["random"]).rank(BicliqueQuery(2, 2))
        predictions = [p.predicted_seconds for p in ranked]
        assert predictions == sorted(predictions)
        # free engine choice prices methods per engine: each (method,
        # engine) candidate appears exactly once
        assert len({(p.method, p.backend) for p in ranked}) == len(ranked)
        assert {p.method for p in ranked} == \
            {"Basic", "BCL", "BCLP", "GBL", "GBC"}

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
        # auto means "fastest": either uninstrumented engine may win,
        # but never the instrumented simulated device
        assert plan.backend in ("fast", "native")

    def test_free_choice_ranks_native_candidates(self):
        """With no pinned engine the ranking prices the device methods
        on the native batch-kernel engine too, with its own cost model
        and the same prepared requirements as on ``fast``."""
        ranked = Planner(GRAPHS["random"]).rank(BicliqueQuery(2, 2))
        native = [p for p in ranked if p.backend == "native"]
        assert {p.method for p in native} == {"GBL", "GBC"}
        for plan in native:
            fast_twin = next(p for p in ranked if p.backend == "fast"
                             and p.method == plan.method)
            assert plan.prepared == fast_twin.prepared
            assert plan.predicted_seconds < fast_twin.predicted_seconds

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
    """Sessionless planning memoises per-graph signals by content."""

    def test_probe_runs_once_per_graph_content(self, monkeypatch):
        import repro.core.estimate as estimate
        from repro.plan import planner as planner_mod

        graph = random_bipartite(22, 18, 90, seed=41)
        query = BicliqueQuery(2, 2)
        calls = {"n": 0}
        real = estimate.sample_root_profile

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(estimate, "sample_root_profile", counting)
        planner_mod._PROBE_CACHE.clear()
        first = Planner(graph).plan(query)
        second = Planner(graph).plan(query)   # a brand-new planner
        assert first.as_dict() == second.as_dict()
        assert calls["n"] == 1

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
        from repro.plan import planner as planner_mod

        graph = random_bipartite(22, 18, 90, seed=44)
        donor = random_bipartite(22, 18, 90, seed=45)
        query = BicliqueQuery(2, 2)
        calls = {"n": 0}
        real = estimate.sample_root_profile

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(estimate, "sample_root_profile", counting)
        planner_mod._PROBE_CACHE.clear()
        planner = Planner(graph)
        planner.plan(query)
        planner.plan(query)                      # memoised: no new probe
        assert calls["n"] == 1
        for name in ("u_offsets", "u_neighbors", "v_offsets",
                     "v_neighbors"):
            np.copyto(getattr(graph, name), getattr(donor, name))
        changed = planner.plan(query)            # re-syncs, probes again
        assert calls["n"] == 2
        assert changed.as_dict() == Planner(graph).plan(query).as_dict()
        assert calls["n"] == 2                   # shared via probe cache

    def test_session_probe_still_warms_prepared_state(self, monkeypatch):
        """Session planners bypass the probe cache on purpose: their
        probe doubles as the session's prepared-state warmer."""
        from repro.query import GraphSession

        graph = random_bipartite(22, 18, 90, seed=43)
        session = GraphSession(graph)
        Planner(graph, session=session).plan(BicliqueQuery(2, 2))
        assert session.stats.wedge_builds >= 1

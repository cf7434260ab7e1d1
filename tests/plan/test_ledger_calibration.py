"""Ledger-backed planning: calibration moves prices, never counts.

The cost ledger may only ever change the *price* of a plan — which a
deadline admits, how many samples the approx tier draws — so a
ledger-backed ``method="auto"`` must stay bit-identical to every
explicit method.  These tests pin that equivalence plus the calibration
mechanics: measured/predicted ratios flow from ``execute_plan`` back
into the next price, and a misleading prediction gets corrected by
measurement.
"""

import pytest

from repro.core.counts import BicliqueQuery
from repro.errors import DeadlineExceededError
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.graph.stats import graph_fingerprint
from repro.obs import CostLedger
from repro.plan import Planner
from repro.query import GraphSession

GRAPHS = {
    "random": random_bipartite(30, 25, 120, seed=3),
    "power-law": power_law_bipartite(40, 30, 200, seed=5),
}
QUERIES = [BicliqueQuery(2, 2), BicliqueQuery(3, 2), BicliqueQuery(2, 3)]


class TestCountsUnchanged:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_ledger_backed_auto_bit_identical_to_explicit(self,
                                                          graph_name):
        graph = GRAPHS[graph_name]
        bare = GraphSession(graph)
        led = GraphSession(graph, ledger=CostLedger())
        for query in QUERIES:
            for _ in range(2):    # second pass prices with observations
                assert led.count(query, method="auto", deadline=1e3,
                                 use_cache=False).count \
                    == bare.count(query, method="auto").count
            for method in ("Basic", "BCL", "BCLP", "GBL", "GBC"):
                explicit = led.count(query, method=method,
                                     backend="native")
                auto = led.count(query, method="auto", backend="native",
                                 deadline=1e3)
                assert auto.count == explicit.count, (graph_name, query,
                                                      method)


class TestCalibration:
    def test_execution_feeds_the_planner_ratio(self):
        graph = GRAPHS["random"]
        session = GraphSession(graph, ledger=CostLedger())
        query = QUERIES[0]
        session.count(query, method="auto", deadline=1e3)
        planner = Planner(graph, session=session, ledger=session.ledger)
        plan = planner.plan(query, deadline=1e3)
        assert plan.calibrated_seconds is not None, \
            "the price did not learn from the measured run"
        assert plan.observed_seconds is not None
        assert "ledger-calibrated" in plan.reason

    def test_measured_costs_override_a_wrong_prediction(self):
        # plant history claiming GBC runs 1000x faster than priced: a
        # deadline between the calibrated and the raw price must admit
        # the plan, and the raw price alone must not
        graph = GRAPHS["power-law"]
        query = BicliqueQuery(3, 2)
        fp = graph_fingerprint(graph)
        raw = Planner(graph).plan(query, deadline=1e3).predicted_seconds
        ledger = CostLedger()
        ledger.record(fp, query.p, query.q, "GBC", "native", raw * 1e-3,
                      predicted_seconds=raw)
        deadline = raw * 1e-1
        with pytest.raises(DeadlineExceededError):
            Planner(graph).plan(query, deadline=deadline)
        plan = Planner(graph, ledger=ledger).plan(query, deadline=deadline)
        assert (plan.method, plan.backend) == ("GBC", "native")
        assert plan.calibrated_seconds == pytest.approx(raw * 1e-3,
                                                        rel=0.3)

    def test_predict_uses_the_calibrated_cost(self):
        graph = GRAPHS["random"]
        query = QUERIES[0]
        fp = graph_fingerprint(graph)
        bare = Planner(graph)
        raw = bare.predict(query, "GBC", backend="native")
        ledger = CostLedger()
        ledger.record(fp, query.p, query.q, "GBC", "native", raw * 10.0,
                      predicted_seconds=raw)
        assert Planner(graph, ledger=ledger).predict(
            query, "GBC", backend="native") == pytest.approx(raw * 10.0,
                                                             rel=0.05)

    def test_explicit_plan_execution_records_without_a_ratio(self):
        # explicit plans carry no prediction: the cell has no ratio, so
        # its observed seconds are what calibrates the next price
        graph = GRAPHS["random"]
        query = QUERIES[0]
        ledger = CostLedger()
        session = GraphSession(graph, ledger=ledger)
        session.count(query, method="GBC", backend="fast")
        cell = ledger.lookup(session.fingerprint, query.p, query.q,
                             "GBC", "fast")
        assert cell is not None
        assert cell.ratio is None
        assert Planner(graph, ledger=ledger).predict(
            query, "GBC", backend="fast") == cell.observed_seconds

    def test_explicit_runs_alone_correct_an_over_price(self):
        """A cell holding only explicit runs (no ratio) still calibrates:
        a deadline the raw price blows but the measured seconds fit is
        admitted, by the plan and by a pinned-method count alike."""
        graph = random_bipartite(200, 150, 4000, seed=3)
        query = BicliqueQuery(3, 3)
        raw = Planner(graph).predict(query, "GBC", backend="native")
        deadline = raw / 2
        with pytest.raises(DeadlineExceededError):
            GraphSession(graph, ledger=CostLedger()).count(
                query, "auto", deadline=deadline)

        def seeded() -> CostLedger:
            # a fresh ledger per check: each executed count records its
            # own wall seconds, and no assertion may depend on those
            ledger = CostLedger()
            ledger.record(graph_fingerprint(graph), query.p, query.q,
                          "GBC", "native", raw / 8)
            return ledger

        plan = Planner(graph, ledger=seeded()).plan(query,
                                                    deadline=deadline)
        assert plan.predicted_seconds == pytest.approx(raw)
        assert plan.calibrated_seconds == pytest.approx(raw / 8)
        assert "ledger-calibrated" in plan.reason
        expect = GraphSession(graph).count(query, "GBC",
                                           backend="native").count
        assert GraphSession(graph, ledger=seeded()).count(
            query, "auto", deadline=deadline).count == expect
        assert GraphSession(graph, ledger=seeded()).count(
            query, "GBC", backend="native", deadline=deadline).count \
            == expect

    def test_ledger_records_wall_seconds(self):
        """The ledger learns the wall seconds a deadline budgets, not
        the simulated device seconds a sim result headlines."""
        graph = GRAPHS["random"]
        query = QUERIES[0]
        ledger = CostLedger()
        session = GraphSession(graph, ledger=ledger)
        result = session.count(query, method="GBC", backend="sim")
        cell = ledger.lookup(session.fingerprint, query.p, query.q,
                             "GBC", "sim")
        assert cell.observed_seconds != result.device_seconds
        assert cell.observed_seconds >= result.wall_seconds * 0.5

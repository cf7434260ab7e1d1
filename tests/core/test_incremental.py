"""Dynamic butterfly maintenance: a DynamicGraphSession tracking (2, 2).

At (2, 2) the delta rule of :mod:`repro.core.delta` is the classic
wedge-closure sum, so these are the butterfly-stream checks run through
the one incremental implementation; randomized toggle, round-trip and
teardown streams over every shape live in
``tests/property/test_property_incremental.py``.  ``TestRebuildPrice``
pins what the delta-vs-rebuild cutover prices.
"""

from math import comb

import numpy as np
import pytest

from repro.core.butterfly import butterfly_count
from repro.core.counts import BicliqueQuery
from repro.dynamic import DynamicGraphSession
from repro.errors import GraphValidationError
from repro.graph.builders import complete_bipartite
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.plan import Planner


def tracked(graph=None, num_u=0, num_v=0):
    """A dynamic session over ``graph`` (or an empty one) tracking (2, 2)."""
    if graph is None:
        dyn = DynamicGraphSession.empty(num_u, num_v)
        dyn.track(2, 2)
        return dyn
    return DynamicGraphSession.from_graph(graph, track=[(2, 2)])


class TestDynamicButterflies:
    def test_from_graph_matches_static(self, small_random):
        dyn = tracked(small_random)
        assert dyn.count(2, 2) == butterfly_count(small_random).count

    def test_insert_matches_recount(self):
        rng = np.random.default_rng(3)
        dyn = tracked(num_u=12, num_v=12)
        for _ in range(60):
            u = int(rng.integers(0, 12))
            v = int(rng.integers(0, 12))
            if not dyn.has_edge(u, v):
                dyn.insert(u, v)
                assert dyn.count(2, 2) == dyn.recount(2, 2)

    def test_delete_matches_recount(self):
        g = random_bipartite(10, 10, 50, seed=4)
        dyn = tracked(g)
        rng = np.random.default_rng(5)
        edges = list(g.edges())
        rng.shuffle(edges)
        for u, v in edges[:25]:
            dyn.delete(u, int(v))
            assert dyn.count(2, 2) == dyn.recount(2, 2)

    def test_insert_delete_roundtrip(self):
        g = random_bipartite(8, 8, 30, seed=6)
        dyn = tracked(g)
        before = dyn.count(2, 2)
        if dyn.has_edge(0, 7):
            dyn.delete(0, 7)
            dyn.insert(0, 7)
        else:
            dyn.insert(0, 7)
            dyn.delete(0, 7)
        assert dyn.count(2, 2) == before == dyn.recount(2, 2)

    def test_complete_graph_formula(self):
        dyn = tracked(complete_bipartite(4, 4))
        assert dyn.count(2, 2) == comb(4, 2) ** 2

    def test_duplicate_insert_rejected(self):
        dyn = tracked(num_u=2, num_v=2)
        dyn.insert(0, 0)
        with pytest.raises(GraphValidationError):
            dyn.insert(0, 0)

    def test_missing_delete_rejected(self):
        dyn = tracked(num_u=2, num_v=2)
        with pytest.raises(GraphValidationError):
            dyn.delete(0, 0)

    def test_out_of_range(self):
        dyn = tracked(num_u=2, num_v=2)
        with pytest.raises(GraphValidationError):
            dyn.insert(5, 0)

    def test_update_counter(self):
        dyn = tracked(num_u=3, num_v=3)
        dyn.insert(0, 0)
        dyn.insert(1, 1)
        assert dyn.epoch == 2



class TestRebuildPrice:
    @pytest.mark.parametrize("backend, method",
                             [("fast", "GBC"), ("native", "auto")])
    def test_rebuild_priced_for_the_recount(self, backend, method):
        """The cutover prices the recount :meth:`count` runs: the
        session's method on its engine (``auto`` on native is GBC), at
        the work bound over GBC's rate there."""
        from repro.plan import get_method

        g = power_law_bipartite(60, 50, 400, seed=9)
        dyn = DynamicGraphSession.from_graph(g, backend=backend,
                                             method=method)
        dyn.track(3, 3)
        query = BicliqueQuery(3, 3)
        planner = Planner(g)
        price = planner.predict(query, "GBC", backend=backend)
        assert dyn._rebuild_seconds[(3, 3)] == price == \
            planner.bound(query)[0] / get_method("GBC").rates[backend] > 0

    def test_unpriced_rebuild_never_cuts_over(self):
        """Basic is unpriced, so its shapes stay on the delta path."""
        g = power_law_bipartite(60, 50, 400, seed=9)
        dyn = DynamicGraphSession.from_graph(g, method="Basic",
                                             cutover_ratio=1e-12)
        dyn.track(2, 2)
        assert dyn._rebuild_seconds[(2, 2)] is None
        dyn.toggle(0, 0)
        assert dyn.stats.cutover_deferrals == 0
        assert dyn.count(2, 2) == dyn.recount(2, 2)

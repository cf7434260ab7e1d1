"""Staleness: in-place graph edits always miss or invalidate caches.

Three cache layers key prepared state by graph-content fingerprint: the
session's result cache, the planner's instance memos (stats + probe
results), and the pool's live sessions.  An in-place mutation of a
graph's CSR arrays — the one edit the object identity can't reveal —
must never let any of them serve an answer for the old content once the
owner is told to look (``GraphSession.refresh`` /
``SessionPool.refresh``), and the planner must notice *by itself* on
its next public call (``Planner._sync``).

Streaming edits don't need any of this: a
:class:`~repro.dynamic.DynamicGraphSession` versions every edit, so
its entries are never stale by construction (also pinned here).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.dynamic import DynamicGraphSession, EdgeMutation
from repro.errors import ServiceError
from repro.graph.generators import random_bipartite
from repro.plan import Planner
from repro.query import GraphSession, graph_fingerprint
from repro.service.pool import SessionPool

QUERY = BicliqueQuery(2, 2)


def make_pair():
    """Two same-dimension graphs with different content (and counts)."""
    original = random_bipartite(24, 20, 96, seed=31)
    donor = random_bipartite(24, 20, 96, seed=32)
    assert graph_fingerprint(original) != graph_fingerprint(donor)
    return original, donor


def overwrite_in_place(target, donor) -> None:
    """The staleness hazard itself: replace ``target``'s CSR contents
    with ``donor``'s without changing any array object identity."""
    np.copyto(target.u_offsets, donor.u_offsets)
    np.copyto(target.u_neighbors, donor.u_neighbors)
    np.copyto(target.v_offsets, donor.v_offsets)
    np.copyto(target.v_neighbors, donor.v_neighbors)


class TestSessionRefresh:
    def test_stale_until_refresh_then_exact(self):
        graph, donor = make_pair()
        old_exact = gbc_count(graph, QUERY, backend="fast").count
        new_exact = gbc_count(donor, QUERY, backend="fast").count
        assert old_exact != new_exact   # the drift is observable

        session = GraphSession(graph)
        assert session.count(QUERY).count == old_exact
        overwrite_in_place(graph, donor)
        # the documented contract: memoisation keys on the fingerprint
        # taken at creation/refresh, so an unannounced in-place edit
        # serves the old content until refresh() is called...
        assert session.count(QUERY).count == old_exact
        # ... and refresh() detects the edit and drops everything
        assert session.refresh() is True
        assert session.fingerprint == graph_fingerprint(donor)
        assert session.count(QUERY).count == new_exact
        assert len(session.results) == 1    # only the fresh entry

    def test_refresh_on_untouched_graph_keeps_caches(self):
        graph, _ = make_pair()
        session = GraphSession(graph)
        first = session.count(QUERY)
        assert session.refresh() is False
        assert session.count(QUERY) is first    # still the cached object

    def test_refresh_is_idempotent(self):
        graph, donor = make_pair()
        session = GraphSession(graph)
        overwrite_in_place(graph, donor)
        assert session.refresh() is True
        assert session.refresh() is False


class TestPlannerSync:
    def test_reused_planner_resyncs_by_itself(self):
        """A planner held across an in-place edit must price exactly
        like a planner built fresh on the mutated graph — no stale
        bound, no stale ledger key."""
        graph, donor = make_pair()
        planner = Planner(graph)
        before = planner.plan(QUERY, deadline=1e3)
        overwrite_in_place(graph, donor)
        after = planner.plan(QUERY, deadline=1e3)
        fresh = Planner(graph).plan(QUERY, deadline=1e3)
        assert after.as_dict() == fresh.as_dict()
        # and the price really is about the new content
        donor_view = Planner(donor).plan(QUERY, deadline=1e3)
        assert after.predicted_seconds == donor_view.predicted_seconds
        assert before.as_dict() != after.as_dict() or \
            before.predicted_seconds != after.predicted_seconds

    def test_session_planner_follows_refresh(self):
        """Session-backed planners price from the *session's* arrays:
        stale until the session refreshes, synced right after."""
        graph, donor = make_pair()
        session = GraphSession(graph)
        planner = Planner(graph, session=session)
        planner.plan(QUERY, deadline=1e3)
        overwrite_in_place(graph, donor)
        session.refresh()
        resynced = planner.plan(QUERY, deadline=1e3)
        fresh = Planner(graph, session=GraphSession(graph)).plan(
            QUERY, deadline=1e3)
        assert resynced.as_dict() == fresh.as_dict()


class TestPoolRefresh:
    def test_static_in_place_edit_detected_and_repaired(self):
        graph, donor = make_pair()
        new_exact = gbc_count(donor, QUERY, backend="fast").count
        pool = SessionPool()
        pool.register("g", graph)
        pool.session("g").count(QUERY)
        overwrite_in_place(graph, donor)
        assert pool.refresh("g") is True
        assert pool.session("g").count(QUERY).count == new_exact
        assert pool.refresh("g") is False   # repaired, nothing left

    def test_name_with_no_live_session_has_nothing_to_refresh(self):
        graph, _ = make_pair()
        pool = SessionPool()
        pool.register("g", graph)           # never served -> no session
        assert pool.refresh("g") is False

    def test_unknown_name_raises(self):
        with pytest.raises(ServiceError, match="unknown graph"):
            SessionPool().refresh("nope")

    def test_dynamic_entries_are_never_stale(self):
        """Dynamic graphs version every edit, so refresh() has nothing
        to detect — reads after a mutation are exact without it."""
        graph, _ = make_pair()
        dyn = DynamicGraphSession.from_graph(graph, track=[(2, 2)])
        pool = SessionPool()
        pool.register("dyn", dyn)
        before = pool.session("dyn").count(QUERY).count
        pool.mutate("dyn", [EdgeMutation.toggle(0, 0)])
        assert pool.refresh("dyn") is False
        after = pool.session("dyn").count(QUERY)
        assert after.count == dyn.recount(2, 2)
        assert after.extras["epoch"] == 1.0
        assert before == gbc_count(graph, QUERY, backend="fast").count

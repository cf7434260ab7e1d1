"""GraphSession: shared precomputation built once, identical to classic.

Covers the batch-engine acceptance criterion: for a batch of >= 3
queries on one graph, the reorder permutation, two-hop index and HTB are
each constructed exactly once (asserted via the session's construction
counters), and every batched count is bit-identical to the corresponding
single-query result on all three backends.
"""

import numpy as np
import pytest

from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs
from repro.core.gbc import gbc_count
from repro.bench.runner import run_method
from repro.errors import QueryError
from repro.graph.bipartite import LAYER_U, LAYER_V
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.graph.priority import priority_order, rank_from_order
from repro.graph.twohop import build_two_hop_index
from repro.query import GraphSession, batch_count

BACKENDS = [("sim", None), ("fast", None), ("native", 2)]


@pytest.fixture(scope="module")
def graph():
    return power_law_bipartite(num_u=90, num_v=60, num_edges=360, seed=11)


class TestBuildOnce:
    """The acceptance criterion: each structure materialised exactly once."""

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_batch_builds_each_structure_once_and_matches_single(
            self, graph, backend, workers):
        queries = [BicliqueQuery(2, 3), BicliqueQuery(3, 3),
                   BicliqueQuery(4, 3)]
        session = GraphSession(graph)
        batch = batch_count(session, queries, backend=backend,
                            workers=workers, layer=LAYER_U)

        s = session.stats
        assert s.wedge_builds == 1
        assert s.order_builds == 1          # the reorder permutation
        assert s.index_builds == 1          # the two-hop index
        assert s.htb_adj_builds == 1        # HTB over adjacency
        assert s.htb_two_hop_builds == 1    # HTB over N2^q
        assert s.prepare_calls == len(queries)

        for query, got in zip(queries, batch.results):
            single = gbc_count(graph, query, layer=LAYER_U,
                               backend=backend, workers=workers)
            assert got.count == single.count
            if backend == "sim":
                # bit-identical device accounting, not just the count
                assert got.metrics.global_transactions == \
                    single.metrics.global_transactions
                assert got.device_seconds == single.device_seconds

    def test_mixed_q_values_share_the_wedge_pass(self, graph):
        session = GraphSession(graph)
        batch_count(session, "3x3,3x4,4x4", backend="fast", layer=LAYER_U)
        s = session.stats
        assert s.wedge_builds == 1          # q=3 and q=4 share one pass
        assert s.order_builds == 2          # one permutation per k
        assert s.index_builds == 2
        assert s.htb_adj_builds == 1        # adjacency HTB is k-independent
        assert s.htb_two_hop_builds == 2

    def test_second_batch_builds_nothing_new(self, graph):
        session = GraphSession(graph)
        batch_count(session, "2x3,3x3", backend="fast", layer=LAYER_U)
        first = dict(session.stats.as_dict())
        batch_count(session, "2x3,3x3,4x3", backend="fast", layer=LAYER_U)
        second = session.stats.as_dict()
        for key in ("wedge_builds", "order_builds", "index_builds",
                    "htb_adj_builds", "htb_two_hop_builds"):
            assert second[key] == first[key]

    def test_nb_builds_no_htb(self, graph):
        """GBC-NB intersects CSR rows, so its count builds neither HTB."""
        session = GraphSession(graph)
        session.count(BicliqueQuery(3, 3), "GBC-NB", backend="fast")
        assert session.stats.htb_adj_builds == 0
        assert session.stats.htb_two_hop_builds == 0

    def test_methods_share_prepared_structures(self, graph):
        session = GraphSession(graph)
        query = BicliqueQuery(3, 3)
        counts = {m: session.count(query, m, backend="fast", layer=LAYER_U)
                  .count for m in ("BCL", "GBL", "GBC")}
        assert len(set(counts.values())) == 1
        s = session.stats
        assert s.wedge_builds == 1 and s.order_builds == 1
        assert s.index_builds == 1


class TestCompactWedgePass:
    """The session keeps pairs with 2 or more common neighbours; the
    first k = 1 structure rebuilds the layer's pass in full."""

    def test_k_one_rebuilds_once_and_counts_match(self, graph):
        session = GraphSession(graph)
        shapes = [(3, 3), (3, 1), (1, 3), (2, 2)]
        builds = []
        for p, q in shapes:
            query = BicliqueQuery(p, q)
            got = session.count(query, "GBC", backend="native")
            assert got.count == gbc_count(graph, query,
                                          backend="fast").count
            builds.append(session.stats.wedge_builds)
        # (3,3) builds the floor-2 pass; the shape with k = 1 after
        # anchoring rebuilds it at floor 1, which then serves the rest
        assert builds == [1, 2, 2, 2]
        assert session.wedges(LAYER_U).floor == 1

    def test_floor_two_pass_serves_every_k_from_two(self, graph):
        session = GraphSession(graph)
        for k in (2, 3, 4):
            session.two_hop_index(LAYER_U, k)
        assert session.stats.wedge_builds == 1
        assert session.wedges(LAYER_U).floor == 2

    def test_k_one_plan_warms_one_pass(self, graph):
        from repro.plan import explicit_plan, warm_session

        session = GraphSession(graph)
        warm_session(session, explicit_plan(graph, BicliqueQuery(3, 1),
                                            "GBC", layer=LAYER_U))
        assert session.stats.wedge_builds == 1
        assert session.wedges(LAYER_U).floor == 1


class TestStructuresMatchClassicBuilders:
    def test_order_rank_index_identical(self):
        g = random_bipartite(60, 45, 260, seed=3)
        session = GraphSession(g)
        for layer in (LAYER_U, LAYER_V):
            anchored = g if layer == LAYER_U else g.swapped()
            for k in (2, 3):
                order = priority_order(anchored, LAYER_U, k)
                assert np.array_equal(session.priority_order(layer, k),
                                      order)
                rank = rank_from_order(order)
                assert np.array_equal(session.priority_rank(layer, k), rank)
                classic = build_two_hop_index(anchored, LAYER_U, k,
                                              min_priority_rank=rank)
                derived = session.two_hop_index(layer, k)
                assert np.array_equal(derived.offsets, classic.offsets)
                assert np.array_equal(derived.neighbors, classic.neighbors)
        assert session.stats.wedge_builds == 2  # one per layer, all k shared

    def test_prepared_matches_sessionless_inputs(self):
        g = random_bipartite(50, 40, 200, seed=9)
        session = GraphSession(g)
        query = BicliqueQuery(3, 2)
        via_session = session.prepared(query)
        classic = prepare_device_inputs(g, query)
        assert via_session.anchored_layer == classic.anchored_layer
        assert via_session.p == classic.p and via_session.q == classic.q
        assert np.array_equal(via_session.order, classic.order)
        assert np.array_equal(via_session.rank, classic.rank)
        assert np.array_equal(via_session.roots, classic.roots)
        assert np.array_equal(via_session.index.neighbors,
                              classic.index.neighbors)

    @pytest.mark.parametrize("layer", [LAYER_U, LAYER_V])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("q", [2, 3])
    def test_sessionless_prepare_matches_session(self, graph, layer, p, q):
        """One prepare step, two sources: the sessionless wedge pass and
        the session caches give the same inputs field by field, and the
        roots are the per-vertex filter in priority order."""
        # anchored (p, q) as given, whichever layer is anchored
        query = BicliqueQuery(p, q) if layer == LAYER_U \
            else BicliqueQuery(q, p)
        alone = prepare_device_inputs(graph, query, layer)
        cached = GraphSession(graph).prepared(query, layer)
        assert (alone.p, alone.q, alone.anchored_layer) == \
            (cached.p, cached.q, cached.anchored_layer) == (p, q, layer)
        for field in ("order", "rank", "roots"):
            assert np.array_equal(getattr(alone, field),
                                  getattr(cached, field)), field
        assert np.array_equal(alone.index.offsets, cached.index.offsets)
        assert np.array_equal(alone.index.neighbors,
                              cached.index.neighbors)
        g, index = alone.graph, alone.index
        want = [int(u) for u in alone.order
                if g.degree(LAYER_U, int(u)) >= q
                and (p == 1 or index.size(int(u)) >= p - 1)]
        assert alone.roots.tolist() == want and want

    def test_all_methods_match_sessionless_runs(self):
        g = random_bipartite(45, 35, 180, seed=5)
        query = BicliqueQuery(2, 2)
        session = GraphSession(g)
        for method in ("Basic", "BCL", "BCLP", "GBL", "GBC",
                       "GBC-NH", "GBC-NB", "GBC-NW"):
            classic = run_method(method, g, query)
            shared = run_method(method, g, query, session=session)
            assert shared.count == classic.count, method


class TestSessionGuards:
    def test_wrong_graph_raises(self):
        g1 = random_bipartite(20, 15, 60, seed=0)
        g2 = random_bipartite(20, 15, 60, seed=1)
        session = GraphSession(g1)
        with pytest.raises(QueryError):
            gbc_count(g2, BicliqueQuery(2, 2), session=session)

    def test_unknown_method_raises(self):
        g = random_bipartite(10, 10, 30, seed=0)
        with pytest.raises(QueryError):
            GraphSession(g).count(BicliqueQuery(1, 1), "NOPE")

    def test_unknown_layer_raises(self):
        g = random_bipartite(10, 10, 30, seed=0)
        with pytest.raises(QueryError):
            GraphSession(g).anchored("W")

"""The planner's per-root work bound, checked by brute force.

``root_work_bound`` must equal ``deg(r) * C(|N2^q(r)|, p' - 1)`` for
every promising root, with ``deg`` and the two-hop sizes read off the
anchored view and ``p'`` the anchored view's p — which differs from the
query's p whenever the anchor swaps layers.
"""

from math import comb

import numpy as np
import pytest

from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs, root_work_bound
from repro.graph.bipartite import LAYER_U
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.query import GraphSession

GRAPHS = [random_bipartite(14, 11, 60, seed=2),
          power_law_bipartite(18, 25, 90, seed=4),
          random_bipartite(9, 30, 80, seed=8)]
SHAPES = [(p, q) for p in range(1, 5) for q in range(1, 5)]


def brute_force(inputs) -> list[int]:
    g, index = inputs.graph, inputs.index
    return [len(g.neighbors(LAYER_U, r))
            * comb(len(index.of(r)), inputs.p - 1)
            for r in inputs.roots.tolist()]


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.name)
def test_bound_matches_brute_force(graph):
    for p, q in SHAPES:
        inputs = prepare_device_inputs(graph, BicliqueQuery(p, q))
        bound = root_work_bound(inputs)
        assert bound.dtype == np.float64
        assert bound.tolist() == pytest.approx(brute_force(inputs),
                                               rel=1e-12)


def test_anchor_swap_uses_the_anchored_p():
    """A shape whose anchor swaps layers bounds with the anchored p
    (the query's q), not the query's p."""
    swapped = 0
    for graph in GRAPHS:
        for p, q in SHAPES:
            query = BicliqueQuery(p, q)
            inputs = prepare_device_inputs(graph, query)
            if inputs.p == p or not len(inputs.roots):
                continue
            swapped += 1
            assert root_work_bound(inputs).tolist() == \
                pytest.approx(brute_force(inputs), rel=1e-12)
            # the query's p would give a different bound
            wrong = [len(inputs.graph.neighbors(LAYER_U, r))
                     * comb(len(inputs.index.of(r)), p - 1)
                     for r in inputs.roots.tolist()]
            assert wrong != brute_force(inputs)
    assert swapped, "no shape swapped its anchor"


def test_session_and_sessionless_bounds_agree():
    graph = GRAPHS[1]
    session = GraphSession(graph)
    for p, q in SHAPES:
        query = BicliqueQuery(p, q)
        assert root_work_bound(prepare_device_inputs(graph, query)) \
            .tolist() == root_work_bound(
                prepare_device_inputs(graph, query, session=session)) \
            .tolist()

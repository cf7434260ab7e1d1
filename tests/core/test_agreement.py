"""Cross-algorithm agreement: every counter must match brute force on a
grid of graphs and queries.  This is the central correctness battery."""

from math import comb

import pytest

from repro.bench.runner import run_method
from repro.core.basic import basic_count
from repro.core.bcl import bcl_count
from repro.core.bclp import bclp_count
from repro.core.counts import BicliqueQuery
from repro.core.gbc import GBCOptions, gbc_count, gbc_variant
from repro.core.gbl import gbl_count
from repro.core.verify import brute_force_count
from repro.graph.builders import complete_bipartite, empty_graph, from_adjacency
from repro.graph.generators import (
    paper_synthetic,
    planted_bicliques,
    power_law_bipartite,
    random_bipartite,
    star_bipartite,
)

GRAPHS = {
    "fig1a": from_adjacency({0: [0, 1], 1: [0, 1, 2], 2: [0, 1, 2, 4],
                             3: [1, 2, 3], 4: [0, 2, 3, 4]},
                            num_u=5, num_v=5),
    "random": random_bipartite(25, 20, 100, seed=1),
    "power-law": power_law_bipartite(40, 30, 160, seed=2),
    "synthetic": paper_synthetic(30, 26, mean_degree=6, locality=12, seed=3),
    "planted": planted_bicliques(16, 16, [(4, 3), (3, 3)], noise_edges=12,
                                 seed=4),
    "complete": complete_bipartite(5, 4),
    "star": star_bipartite(8),
    "empty": empty_graph(6, 6),
}

QUERIES = [BicliqueQuery(*pq) for pq in
           [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]]

ALGORITHMS = {
    "basic": lambda g, q: basic_count(g, q).count,
    "bcl": lambda g, q: bcl_count(g, q).count,
    "bclp": lambda g, q: bclp_count(g, q, threads=4).count,
    "gbl": lambda g, q: gbl_count(g, q).count,
    "gbc": lambda g, q: gbc_count(g, q).count,
    "gbc-nh": lambda g, q: gbc_count(g, q, options=gbc_variant("NH")).count,
    "gbc-nb": lambda g, q: gbc_count(g, q, options=gbc_variant("NB")).count,
    "gbc-nw": lambda g, q: gbc_count(g, q, options=gbc_variant("NW")).count,
}


@pytest.fixture(scope="module")
def truths():
    return {(name, str(q)): brute_force_count(g, q)
            for name, g in GRAPHS.items() for q in QUERIES}


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_algorithm_matches_brute_force(algo, graph_name, truths):
    g = GRAPHS[graph_name]
    fn = ALGORITHMS[algo]
    for q in QUERIES:
        assert fn(g, q) == truths[(graph_name, str(q))], \
            f"{algo} wrong on {graph_name} {q}"


@pytest.mark.parametrize("layer", ["U", "V"])
def test_forced_anchor_agreement(layer, truths):
    """Forcing either anchor layer must not change any count."""
    g = GRAPHS["power-law"]
    for q in QUERIES:
        assert bcl_count(g, q, layer=layer).count == \
            truths[("power-law", str(q))]
        assert gbc_count(g, q, layer=layer).count == \
            truths[("power-law", str(q))]


def test_gbc_small_batch_limit():
    """Tiny BFS batches exercise the batching boundary logic."""
    g = GRAPHS["power-law"]
    q = BicliqueQuery(3, 2)
    expected = brute_force_count(g, q)
    for limit in (1, 2, 3, 7):
        res = gbc_count(g, q, options=GBCOptions(batch_limit=limit))
        assert res.count == expected


def test_gbc_custom_blocks():
    g = GRAPHS["random"]
    q = BicliqueQuery(2, 2)
    expected = brute_force_count(g, q)
    for blocks in (1, 3, 17):
        res = gbc_count(g, q, options=GBCOptions(num_blocks=blocks))
        assert res.count == expected


#: C(68, 34) = 28,453,041,475,240,576,740 exceeds 2**63, so both shapes
#: reach ``comb_sum``'s arbitrary-precision fallback on every engine
OVERFLOW_GRAPH = complete_bipartite(68, 68)


@pytest.mark.parametrize("engine", ["sim", "fast", "native", "native-w2"])
@pytest.mark.parametrize("method", ["Basic", "BCL", "BCLP", "GBL", "GBC"])
@pytest.mark.parametrize("p,q", [(2, 34), (1, 34)])
def test_counts_past_int64_stay_exact(p, q, method, engine):
    expected = comb(68, p) * comb(68, q)
    assert expected > 2 ** 63
    workers = 2 if engine == "native-w2" else None
    engine = engine.split("-")[0]
    result = run_method(method, OVERFLOW_GRAPH, BicliqueQuery(p, q),
                        backend=engine, workers=workers)
    assert result.backend == engine
    assert result.count == expected

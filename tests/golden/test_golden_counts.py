"""Golden-count regression harness.

Five algorithms x four engine configurations x three graph shapes, each
asserted against the pinned count in ``golden_counts.json``.  The shapes
stress different engine paths:

* **power-law** — skewed degrees, the head-heavy regime of the paper's
  real datasets (deep recursion on a few heavy roots);
* **dense-bipartite** — uniform ~50% density, long candidate sets and
  wide intersections;
* **star-heavy** — a few hub vertices adjacent to most of V over sparse
  noise, the extreme-imbalance case load balancing exists for.

``native-w2`` is ``native`` forked over two real worker processes, so
the sharded merge path itself is under golden protection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import run_method
from repro.core.counts import BicliqueQuery
from repro.engine import NativeBackend
from repro.graph.builders import from_edges
from repro.graph.generators import power_law_bipartite, random_bipartite

ALGORITHMS = ("Basic", "GBC", "GBL", "BCL", "BCLP")
BACKENDS = ("sim", "fast", "native", "native-w2")


def _star_heavy():
    """Three hubs covering most of V, plus deterministic sparse noise."""
    rng = np.random.default_rng(23)
    num_u, num_v = 40, 30
    edges = {(hub, v) for hub in (0, 1, 2)
             for v in range(0, num_v, hub + 1)}
    while len(edges) < 190:
        edges.add((int(rng.integers(3, num_u)), int(rng.integers(0, num_v))))
    return from_edges(num_u, num_v, sorted(edges), name="star-heavy")


GRAPHS = {
    "power-law": (lambda: power_law_bipartite(60, 50, 320, seed=11,
                                              name="golden-pl"),
                  BicliqueQuery(3, 2)),
    "dense-bipartite": (lambda: random_bipartite(24, 20, 240, seed=7,
                                                 name="golden-dense"),
                        BicliqueQuery(3, 3)),
    "star-heavy": (_star_heavy, BicliqueQuery(2, 3)),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: (build(), query)
            for name, (build, query) in GRAPHS.items()}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("shape", sorted(GRAPHS))
def test_golden_count(golden, graphs, shape, algorithm, backend):
    graph, query = graphs[shape]
    engine = NativeBackend(workers=2) if backend == "native-w2" else backend
    result = run_method(algorithm, graph, query, backend=engine)
    assert result.backend == backend.split("-")[0]
    golden.check(f"{shape}/{query}", result.count,
                 source=f"{algorithm}[{backend}]")

"""The native batch-kernel backend: equivalence and prepared state.

Three layers of protection:

* **pairwise-kernel equivalence** — each of the frontier's four
  pairwise kernels against the protocol's default implementation (a
  loop over the scalar ``fast`` kernels) on randomised CSR/HTB levels,
  including empty keys/rows/selections;
* **algorithm equivalence** — every counter (ablation variants
  included) produces counts bit-identical to ``fast``, on regular and
  degenerate graphs, across all four registered engines;
* **prepared state** — a count on ``native`` builds exactly what the
  same count builds on ``fast``: the engine reads the shared prepared
  arrays and keeps no state of its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import run_method
from repro.core.counts import BicliqueQuery
from repro.engine import NativeBackend, ParallelBackend, resolve_backend
from repro.engine.fast import FastBackend
from repro.gpu.metrics import KernelMetrics
from repro.graph.builders import from_edges
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.htb.htb import BitmapSet, build_htb_from_rows

ALGORITHMS = ("Basic", "BCL", "BCLP", "GBL", "GBC",
              "GBC-NH", "GBC-NB", "GBC-NW")
BACKEND_FACTORIES = {
    "sim": lambda: "sim",
    "fast": lambda: "fast",
    "par": lambda: ParallelBackend(workers=2),
    "native": lambda: NativeBackend(),
}


def _random_rows(rng, n_rows, universe, max_len):
    return [np.unique(rng.integers(0, universe,
                                   size=int(rng.integers(0, max_len))))
            .astype(np.int64) for _ in range(n_rows)]


def _pack_csr(rows):
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    values = (np.concatenate(rows) if offsets[-1]
              else np.empty(0, dtype=np.int64))
    return offsets, values


class TestPairwiseEquivalence:
    """The frontier's pairwise kernels vs the scalar-loop defaults.

    ``FastBackend`` inherits the protocol's default pairwise entry
    points (a loop over the scalar kernels with identical arguments),
    so it is the reference the vectorised implementations must match —
    including both probe directions of the adaptive ``searchsorted``
    (small A rows against big CSR rows and the reverse).
    """

    @pytest.fixture()
    def engines(self):
        return NativeBackend(), FastBackend()

    def _ragged(self, rows):
        offsets, values = _pack_csr(rows)
        return offsets, values

    @pytest.mark.parametrize("a_len,b_len", [(6, 60), (60, 6), (25, 25)])
    def test_intersect_pairs(self, engines, a_len, b_len):
        native, fast = engines
        rng = np.random.default_rng(a_len * 100 + b_len)
        a_off, a_val = self._ragged(
            _random_rows(rng, 10, 300, a_len) + [np.empty(0, np.int64)])
        offsets, values = _pack_csr(
            _random_rows(rng, 14, 300, b_len) + [np.empty(0, np.int64)])
        a_ids = rng.integers(0, 11, 30).astype(np.int64)
        rows = rng.integers(0, 15, 30).astype(np.int64)
        m = KernelMetrics()
        got_off, got_flat = native.intersect_pairs(
            a_off, a_val, a_ids, offsets, values, rows, m)
        want_off, want_flat = fast.intersect_pairs(
            a_off, a_val, a_ids, offsets, values, rows, m)
        np.testing.assert_array_equal(got_off, want_off)
        np.testing.assert_array_equal(got_flat, want_flat)
        np.testing.assert_array_equal(
            native.intersect_pairs_sizes(a_off, a_val, a_ids, offsets,
                                         values, rows, m),
            fast.intersect_pairs_sizes(a_off, a_val, a_ids, offsets,
                                       values, rows, m))

    def test_intersect_pairs_empty(self, engines):
        native, _ = engines
        m = KernelMetrics()
        none = np.empty(0, np.int64)
        off, flat = native.intersect_pairs(
            np.zeros(1, np.int64), none, none,
            np.zeros(1, np.int64), none, none, m)
        assert len(off) == 1 and len(flat) == 0
        sizes = native.intersect_pairs_sizes(
            np.zeros(3, np.int64), none, np.zeros(2, np.int64),
            np.zeros(5, np.int64), none, np.zeros(2, np.int64), m)
        np.testing.assert_array_equal(sizes, [0, 0])

    def test_bitmap_pairs(self, engines):
        native, fast = engines
        rng = np.random.default_rng(17)
        htb = build_htb_from_rows(
            _random_rows(rng, 12, 500, 80) + [np.empty(0, np.int64)])
        a_sets = [BitmapSet.from_vertices(r)
                  for r in _random_rows(rng, 8, 500, 70)]
        a_off, _ = self._ragged([s.idx for s in a_sets])
        a_idx = np.concatenate([s.idx for s in a_sets])
        a_val = np.concatenate([s.val for s in a_sets])
        a_ids = rng.integers(0, 8, 25).astype(np.int64)
        rows = rng.integers(0, 13, 25).astype(np.int64)
        m = KernelMetrics()
        got = native.bitmap_pairs(a_off, a_idx, a_val, a_ids, htb,
                                  rows, m)
        want = fast.bitmap_pairs(a_off, a_idx, a_val, a_ids, htb,
                                 rows, m)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(
            native.bitmap_pairs_counts(a_off, a_idx, a_val, a_ids,
                                       htb, rows, m),
            fast.bitmap_pairs_counts(a_off, a_idx, a_val, a_ids,
                                     htb, rows, m))


class TestAlgorithmEquivalence:
    """Counts bit-identical to fast across every counter and variant."""

    @pytest.fixture(scope="class")
    def graph(self):
        return power_law_bipartite(50, 40, 260, seed=5, name="native-eq")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_fast(self, graph, algorithm):
        for query in (BicliqueQuery(2, 2), BicliqueQuery(3, 2),
                      BicliqueQuery(2, 3)):
            fast = run_method(algorithm, graph, query, backend="fast")
            native = run_method(algorithm, graph, query, backend="native")
            assert native.count == fast.count
            assert native.backend == "native"
            assert not native.backend_instrumented


class TestDegenerateInputs:
    """All four engines agree on the pathological shapes."""

    CASES = {
        "empty": (from_edges(4, 3, [], name="empty"),
                  BicliqueQuery(2, 2), 0),
        "isolated": (from_edges(6, 5, [(0, 0), (0, 1), (1, 0), (1, 1)],
                                name="isolated"),
                     BicliqueQuery(2, 2), 1),
        "single-edge": (from_edges(3, 3, [(1, 2)], name="single-edge"),
                        BicliqueQuery(1, 1), 1),
        "exceeds-degree": (random_bipartite(10, 8, 30, seed=3,
                                            name="exceeds"),
                           BicliqueQuery(9, 9), 0),
    }

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_backends_agree(self, case, algorithm):
        graph, query, expected = self.CASES[case]
        counts = {}
        for name, make in BACKEND_FACTORIES.items():
            counts[name] = run_method(algorithm, graph, query,
                                      backend=make()).count
        assert counts == {name: expected for name in BACKEND_FACTORIES}, \
            f"{algorithm} disagrees on {case}: {counts}"


class TestPreparedState:
    """The engine reads the prepared state every engine shares."""

    @pytest.mark.parametrize("method", ["GBL", "GBC", "GBC-NB"])
    def test_native_count_builds_what_fast_builds(self, method):
        from repro.query import GraphSession

        graph = power_law_bipartite(50, 40, 260, seed=5)
        query = BicliqueQuery(3, 2)
        counts, stats = {}, {}
        for backend in ("fast", "native"):
            session = GraphSession(graph)
            counts[backend] = session.count(query, method,
                                            backend=backend).count
            stats[backend] = session.stats.as_dict()
        assert counts["native"] == counts["fast"] > 0
        assert stats["native"] == stats["fast"]


class TestAutoPlanning:
    def test_auto_count_can_choose_native_and_agrees(self):
        from repro.query import batch_count

        graph = random_bipartite(40, 30, 200, seed=12)
        auto = batch_count(graph, "2x2,3x2", method="auto")
        explicit = batch_count(graph, "2x2,3x2", method="GBC",
                               backend="fast")
        assert auto.counts == explicit.counts

    def test_resolve_backend_accepts_native(self):
        engine = resolve_backend("native")
        assert isinstance(engine, NativeBackend)
        assert engine.name == "native"
        with pytest.raises(Exception):
            resolve_backend("native", workers=2)

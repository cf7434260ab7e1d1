"""The native batch-kernel backend: equivalence and prepared state.

Five layers of protection:

* **pairwise-kernel equivalence** — each of the frontier's four
  pairwise kernels against the protocol's default implementation (a
  loop over the scalar ``fast`` kernels) on randomised CSR/HTB levels,
  including empty keys/rows/selections;
* **algorithm equivalence** — every counter (ablation variants
  included) produces counts bit-identical to ``fast``, on regular and
  degenerate graphs, across the three registered engines and ``native``
  forked over two workers;
* **prepared state** — a count on ``native`` builds exactly what the
  same count builds on ``fast``: the engine reads the shared prepared
  arrays and keeps no state of its own;
* **reported peak** — the frontier's ``peak_working_set_bytes`` counts
  the rows each pairwise kernel gathers, not only a level's live rows;
* **word budget** — at any budget the hybrid traversal counts what
  ``fast`` counts, and no pairwise call gathers more than the budget
  unless one pair's row alone does, even inside one root's level.
"""

from __future__ import annotations

import functools
import tracemalloc
from math import comb
from typing import NamedTuple

import numpy as np
import pytest

from repro.bench.datasets import load_dataset
from repro.bench.runner import run_method
from repro.core import frontier, gbc, gbl
from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs
from repro.core.frontier import FRONTIER_WORD_BUDGET
from repro.engine import NativeBackend, resolve_backend
from repro.engine.fast import FastBackend
from repro.gpu.metrics import KernelMetrics
from repro.graph.builders import complete_bipartite, from_edges
from repro.graph.csr import row_lengths
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.htb.htb import BitmapSet, build_htb_from_rows

ALGORITHMS = ("Basic", "BCL", "BCLP", "GBL", "GBC",
              "GBC-NH", "GBC-NB", "GBC-NW")
BACKEND_FACTORIES = {
    "sim": lambda: "sim",
    "fast": lambda: "fast",
    "native": lambda: NativeBackend(),
    "native-w2": lambda: NativeBackend(workers=2),
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
    """Every engine configuration agrees on the pathological shapes."""

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


class _GatherRecorder(NativeBackend):
    """Records the total length of the CSR rows each pairwise call
    probes — the elements the kernel gathers."""

    def __init__(self):
        super().__init__()
        self.gathered = []

    def intersect_pairs(self, a_off, a_val, a_ids, offsets, values, rows,
                        metrics, **kwargs):
        self.gathered.append(int(row_lengths(offsets, rows).sum()))
        return super().intersect_pairs(a_off, a_val, a_ids, offsets,
                                       values, rows, metrics, **kwargs)

    def intersect_pairs_sizes(self, a_off, a_val, a_ids, offsets, values,
                              rows, metrics, **kwargs):
        self.gathered.append(int(row_lengths(offsets, rows).sum()))
        return super().intersect_pairs_sizes(a_off, a_val, a_ids, offsets,
                                             values, rows, metrics,
                                             **kwargs)


class TestFrontierPeak:
    """``peak_working_set_bytes`` on ``native`` includes the gathers."""

    @pytest.mark.parametrize("dataset,p,q", [("SO", 2, 3), ("ID", 3, 3),
                                             ("LF", 3, 3), ("GH", 3, 3)])
    def test_gbc_peak_tracks_the_counts_allocations(self, dataset, p, q):
        from repro.core.gbc import gbc_count
        from repro.query import GraphSession

        graph = load_dataset(dataset, "bench")
        query = BicliqueQuery(p, q)
        session = GraphSession(graph)
        # prepared state (order, index, HTBs) is built outside the
        # measured window: the reported peak is the kernel's alone
        gbc_count(graph, query, backend="native", session=session)
        tracemalloc.start()
        try:
            result = gbc_count(graph, query, backend="native",
                               session=session)
            _, traced_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.backend == "native"
        assert 5 * result.peak_working_set_bytes >= traced_peak, (
            result.peak_working_set_bytes, traced_peak)

    @pytest.mark.parametrize("method", ["GBL", "GBC-NB"])
    @pytest.mark.parametrize("dataset,p,q", [("SO", 2, 3), ("ID", 3, 3)])
    def test_csr_peak_covers_the_widest_gather(self, method, dataset, p, q):
        engine = _GatherRecorder()
        result = run_method(method, load_dataset(dataset, "bench"),
                            BicliqueQuery(p, q), backend=engine)
        assert engine.gathered
        assert result.peak_working_set_bytes >= 8 * max(engine.gathered)


class _Call(NamedTuple):
    gathered: int   # words of the probed rows
    widest: int     # words of the widest single probed row
    pairs: int
    tasks: int      # key rows handed to the call


class _SliceRecorder(NativeBackend):
    """Records what each pairwise call gathers, in words: an int64 per
    CSR element, an int64 idx plus a uint64 val per HTB word."""

    def __init__(self):
        super().__init__()
        self.calls: list[_Call] = []

    def _record(self, a_off, offsets, rows, words_per_element):
        lens = row_lengths(offsets, rows)
        self.calls.append(_Call(words_per_element * int(lens.sum()),
                                words_per_element * int(lens.max(initial=0)),
                                len(rows), len(a_off) - 1))

    def intersect_pairs(self, a_off, a_val, a_ids, offsets, values, rows,
                        metrics, **kwargs):
        self._record(a_off, offsets, rows, 2)
        return super().intersect_pairs(a_off, a_val, a_ids, offsets,
                                       values, rows, metrics, **kwargs)

    def intersect_pairs_sizes(self, a_off, a_val, a_ids, offsets, values,
                              rows, metrics, **kwargs):
        self._record(a_off, offsets, rows, 2)
        return super().intersect_pairs_sizes(a_off, a_val, a_ids, offsets,
                                             values, rows, metrics,
                                             **kwargs)

    def bitmap_pairs(self, a_off, a_idx, a_val, a_ids, htb, rows, metrics,
                     **kwargs):
        self._record(a_off, htb.off, rows, 4)
        return super().bitmap_pairs(a_off, a_idx, a_val, a_ids, htb, rows,
                                    metrics, **kwargs)

    def bitmap_pairs_counts(self, a_off, a_idx, a_val, a_ids, htb, rows,
                            metrics, **kwargs):
        self._record(a_off, htb.off, rows, 4)
        return super().bitmap_pairs_counts(a_off, a_idx, a_val, a_ids, htb,
                                           rows, metrics, **kwargs)


@pytest.fixture()
def budgeted(monkeypatch):
    """Point the counters' frontier calls at a given word budget."""
    def _set(budget):
        for module, name in ((gbc, "csr_frontier_count"),
                             (gbc, "htb_frontier_count"),
                             (gbl, "csr_frontier_count")):
            monkeypatch.setattr(module, name, functools.partial(
                getattr(frontier, name), budget_words=budget))
    return _set


@functools.lru_cache(maxsize=None)
def _fast_count(dataset, p, q):
    return run_method("GBC", load_dataset(dataset, "bench"),
                      BicliqueQuery(p, q), backend="fast").count


class TestWordBudget:
    """The hybrid DFS-BFS split: slices of any budget count exactly, and
    each pairwise call stays within the budget or one pair's row."""

    @pytest.mark.parametrize("budget", [1, 64, FRONTIER_WORD_BUDGET])
    @pytest.mark.parametrize("method", ["GBC", "GBL", "GBC-NB"])
    @pytest.mark.parametrize("dataset,p,q", [("SO", 2, 3), ("ID", 3, 3),
                                             ("LF", 3, 3)])
    def test_any_budget_counts_what_fast_counts(self, budgeted, dataset, p,
                                                q, method, budget):
        budgeted(budget)
        engine = _SliceRecorder()
        got = run_method(method, load_dataset(dataset, "bench"),
                         BicliqueQuery(p, q), backend=engine)
        assert got.count == _fast_count(dataset, p, q)
        assert engine.calls
        for call in engine.calls:
            assert call.gathered <= max(budget, call.widest), call

    @pytest.mark.parametrize("method", ["GBC", "GBL", "GBC-NB"])
    def test_one_roots_level_splits(self, budgeted, method):
        """K_{40,40}: one root's first level alone exceeds the budget, so
        its pairs run in several slices against that one root's rows."""
        graph, query = complete_bipartite(40, 40), BicliqueQuery(3, 3)
        inputs = prepare_device_inputs(graph, query)
        first_root_pairs = int(row_lengths(inputs.index.offsets,
                                           inputs.roots[:1])[0])
        assert first_root_pairs > 1
        budgeted(64)
        engine = _SliceRecorder()
        got = run_method(method, graph, query, backend=engine)
        assert got.count == comb(40, 3) ** 2
        first = engine.calls[0]
        assert first.tasks == 1 and first.pairs < first_root_pairs, first
        for call in engine.calls:
            assert call.gathered <= max(64, call.widest), call


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
        assert engine.name == "native" and engine.workers is None
        assert resolve_backend("native", workers=2).workers == 2

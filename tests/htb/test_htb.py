"""Tests for the HTB structure and its simulated-device intersection."""

import numpy as np
import pytest

from repro.graph.bipartite import LAYER_U
from repro.graph.twohop import build_two_hop_index
from repro.gpu.device import rtx_3090
from repro.gpu.intersect import binary_search_intersect
from repro.gpu.metrics import KernelMetrics
from repro.htb.bitmap import encode
from repro.htb.htb import (
    BitmapSet,
    build_htb_from_csr,
    build_htb_from_rows,
    htb_from_graph,
    htb_from_two_hop,
    intersect_device,
    intersect_exact,
)


def _arr(*xs):
    return np.asarray(xs, dtype=np.int64)


class TestHTBStructure:
    def test_from_graph_roundtrip(self, medium_power_law):
        htb = htb_from_graph(medium_power_law, LAYER_U)
        for u in range(medium_power_law.num_u):
            assert np.array_equal(htb.list_of(u),
                                  medium_power_law.neighbors(LAYER_U, u))

    def test_from_two_hop_roundtrip(self, small_random):
        index = build_two_hop_index(small_random, LAYER_U, 2)
        htb = htb_from_two_hop(index)
        for u in range(small_random.num_u):
            assert np.array_equal(htb.list_of(u), index.of(u))

    def test_off_array(self):
        htb = build_htb_from_rows([_arr(0, 1), _arr(), _arr(64)])
        assert htb.off.tolist() == [0, 1, 1, 2]
        assert htb.words_of(0) == 1
        assert htb.words_of(1) == 0

    def test_csr_build_equals_per_row_encode(self):
        """Empty rows (leading, inner, trailing) and words shared across
        rows: the one-pass build stores exactly what per-row encode
        emits, dtypes included."""
        rng = np.random.default_rng(7)
        rows = [np.unique(rng.integers(0, 96, int(rng.integers(1, 30))))
                if i % 5 else np.empty(0, dtype=np.int64)
                for i in range(41)]
        rows += [rows[3].copy(), rows[3].copy(), np.empty(0, np.int64)]
        off = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=off[1:])
        htb = build_htb_from_csr(off, np.concatenate(rows))
        assert htb.off.dtype == np.int64 and len(htb.off) == len(rows) + 1
        for u, row in enumerate(rows):
            idx, val = encode(row)
            view = htb.view(u)
            assert view.idx.dtype == idx.dtype == np.int64
            assert view.val.dtype == val.dtype == np.uint64
            np.testing.assert_array_equal(view.idx, idx)
            np.testing.assert_array_equal(view.val, val)

    def test_descending_row_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            build_htb_from_rows([_arr(1, 2), _arr(40, 3)])
        # rows are independent: a smaller first value in the next row
        # is not a descent
        assert build_htb_from_rows([_arr(50), _arr(3)]).total_words == 2

    def test_nbytes_positive(self, medium_power_law):
        htb = htb_from_graph(medium_power_law, LAYER_U)
        assert htb.nbytes > 0

    def test_compression_vs_csr(self):
        """Dense consecutive lists compress ~32x over CSR words."""
        rows = [np.arange(320, dtype=np.int64)]
        htb = build_htb_from_rows(rows)
        assert htb.total_words == 10  # 320 ids in 10 words

    def test_one_block_count(self):
        rows = [_arr(0), _arr(40), _arr(64, 65)]
        htb = build_htb_from_rows(rows)
        assert htb.one_block_count() == 2

    def test_density(self):
        rows = [_arr(0, 1, 2, 3)]
        htb = build_htb_from_rows(rows)
        assert htb.density() == 4.0


class TestBitmapSet:
    def test_from_vertices_roundtrip(self):
        s = BitmapSet.from_vertices(_arr(5, 9, 200))
        assert s.vertices().tolist() == [5, 9, 200]
        assert s.count() == 3

    def test_empty(self):
        s = BitmapSet.from_vertices(_arr())
        assert s.is_empty() and s.count() == 0


class TestIntersectDevice:
    def _sets(self, a, b):
        return BitmapSet(*encode(a)), BitmapSet(*encode(b))

    def test_example7_result(self):
        keys, lst = self._sets(_arr(3, 10, 23, 102),
                               _arr(3, 8, 10, 17, 73, 79, 82))
        m = KernelMetrics()
        out = intersect_device(keys, lst, rtx_3090(), m)
        assert out.vertices().tolist() == [3, 10]
        assert m.bitwise_ops >= 1

    def test_matches_exact_random(self):
        rng = np.random.default_rng(2)
        spec = rtx_3090()
        for _ in range(40):
            a = np.unique(rng.integers(0, 3000, rng.integers(0, 120)))
            b = np.unique(rng.integers(0, 3000, rng.integers(0, 120)))
            keys, lst = self._sets(a, b)
            m = KernelMetrics()
            out = intersect_device(keys, lst, spec, m)
            assert np.array_equal(out.vertices(), np.intersect1d(a, b))

    def test_empty_inputs(self):
        spec = rtx_3090()
        keys, lst = self._sets(_arr(), _arr(1, 2))
        out = intersect_device(keys, lst, spec, KernelMetrics())
        assert out.is_empty()

    def test_fewer_transactions_than_csr(self):
        """The Fig. 4 claim: HTB needs fewer memory transactions than
        CSR binary search on clustered adjacency data."""
        spec = rtx_3090()
        rng = np.random.default_rng(3)
        base = np.unique(rng.integers(0, 4000, 600))
        keys_ids = base[rng.random(len(base)) < 0.25]
        csr_m = KernelMetrics()
        binary_search_intersect(keys_ids, base, spec, csr_m)
        htb_m = KernelMetrics()
        keys, lst = self._sets(keys_ids, base)
        intersect_device(keys, lst, spec, htb_m)
        assert htb_m.global_transactions < csr_m.global_transactions

    def test_shared_vs_global_keys(self):
        spec = rtx_3090()
        a = _arr(*range(0, 320, 2))
        b = _arr(*range(0, 320, 3))
        keys, lst = self._sets(a, b)
        m_shared, m_global = KernelMetrics(), KernelMetrics()
        intersect_device(keys, lst, spec, m_shared, keys_in_shared=True)
        intersect_device(keys, lst, spec, m_global, keys_in_shared=False)
        assert m_shared.shared_accesses > 0
        assert m_global.shared_accesses == 0
        assert m_global.global_transactions > m_shared.global_transactions


class TestIntersectExact:
    def test_matches_numpy(self):
        a = _arr(1, 5, 99, 400)
        b = _arr(5, 99, 401)
        out = intersect_exact(BitmapSet(*encode(a)), BitmapSet(*encode(b)))
        assert out.vertices().tolist() == [5, 99]

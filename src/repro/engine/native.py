"""The native batch-kernel engine: whole search levels per kernel call.

The paper's GPU kernels win because one launch processes an entire
frontier of (candidate, adjacency-row) pairs; the Python reproduction
lost that shape by issuing one ``backend.intersect`` per candidate, so
interpreter and numpy *dispatch* — not the intersections themselves —
dominate even :class:`~repro.engine.fast.FastBackend` wall time.
:class:`NativeBackend` restores the batch shape on the host: it
declares ``frontier = True``, which routes the device counters through :mod:`repro.core.frontier` — a level-synchronous
traversal that submits **every (candidate, row) pair of a search level
across all roots of a chunk in one call** to the four pairwise kernels
below.  Each kernel keys the concatenated sorted rows by their pair id
(``value + pair * span``) so a single ``searchsorted`` resolves
thousands of independent intersections, probing whichever side of the
level holds fewer elements; the alternative is one numpy dispatch per
recursion node, which a sparse graph's 2–4-row frontiers can never
amortise.  The kernels read the CSR arrays
:func:`~repro.core.device_common.prepare_device_inputs` returns and
GBC's HTBs as they are; the engine keeps no prepared state of its own.

Counts are bit-identical to ``fast`` — the golden harness and the
equivalence tests in ``tests/engine/test_native.py`` assert this
across all five algorithms.  Scalar primitives inherit from
:class:`~repro.engine.fast.FastBackend`, so call sites that intersect
one pair at a time (enumeration, the estimator) keep working.

The engine keeps no planner state either: ``method="auto"`` on
``native`` (or with no engine pinned) always runs GBC here, and a
deadline prices this frontier as the work bound over GBC's or GBL's
``native`` rate (:mod:`repro.plan.planner`).
"""

from __future__ import annotations

import numpy as np

from repro.engine.fast import FastBackend
from repro.graph.csr import row_positions
from repro.gpu.metrics import KernelMetrics
from repro.htb.bitmap import popcount
from repro.obs import trace as _trace

__all__ = ["NativeBackend"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=np.uint64)


def _per_row_sums(flags: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum boolean/int ``flags`` over each row of a flat batch."""
    csum = np.empty(len(flags) + 1, dtype=np.int64)
    csum[0] = 0
    np.cumsum(flags, dtype=np.int64, out=csum[1:])
    ends = np.cumsum(lens)
    return csum[ends] - csum[ends - lens]


class NativeBackend(FastBackend):
    """Pairwise batch kernels over flat CSR/HTB arrays."""

    name = "native"
    instrumented = False
    #: the counting drivers run the level-synchronous frontier traversal
    #: (:mod:`repro.core.frontier`) on this engine: one pairwise kernel
    #: call per search level across every live root
    frontier = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NativeBackend()"

    # -- pairwise batch kernels (one call per search level) ------------
    @staticmethod
    def _pair_hits(a_off, a_val, a_ids, b_flat, b_lens):
        """``hit[i] = b_flat[i] ∈ A[its pair's key row]`` in one probe.

        Keying every element by its ragged row id turns the
        concatenated key rows into one globally sorted haystack (rows
        are sorted and row blocks ascend), so a single ``searchsorted``
        resolves every pair of the level — needles carry their target
        row's key and can only match inside it.
        """
        span = int(max(int(a_val.max()), int(b_flat.max()))) + 1
        a_rows = np.repeat(np.arange(len(a_off) - 1, dtype=np.int64),
                           np.diff(a_off))
        haystack = a_val + a_rows * span
        needles = b_flat + np.repeat(a_ids, b_lens) * span
        pos = haystack.searchsorted(needles)
        pos[pos == len(haystack)] = 0
        return pos, haystack[pos] == needles

    def _pair_select(self, a_off, a_val, a_ids, offsets, values, rows):
        """Core of the pairwise CSR kernels: per-pair hit flags.

        Probes the *smaller* side of the level into the other — binary
        search count is what the whole level costs, so the direction
        with fewer needles wins (the GPU kernels make the same choice
        per warp).  Returns ``(hit, lens, flat)`` where ``flat[hit]``
        is the ragged result and ``lens`` its per-pair input lengths.
        """
        b_pos, b_lens = row_positions(offsets, rows)
        if len(a_val) == 0 or len(b_pos) == 0:
            return None
        a_lens = (a_off[a_ids + 1] - a_off[a_ids]).astype(np.int64,
                                                          copy=False)
        b_flat = values[b_pos]
        if int(a_lens.sum()) <= len(b_flat):
            # expand each pair's key row and probe it into the gathered
            # CSR rows (keyed per pair, globally sorted by construction)
            a_pos, _ = row_positions(a_off, a_ids)
            a_flat = a_val[a_pos]
            if len(a_flat) == 0:
                return None
            span = int(max(int(a_flat.max()), int(b_flat.max()))) + 1
            pair_ids = np.arange(len(rows), dtype=np.int64)
            haystack = b_flat + np.repeat(pair_ids, b_lens) * span
            needles = a_flat + np.repeat(pair_ids, a_lens) * span
            pos = haystack.searchsorted(needles)
            pos[pos == len(haystack)] = 0
            return haystack[pos] == needles, a_lens, a_flat
        _, hit = self._pair_hits(a_off, a_val, a_ids, b_flat, b_lens)
        return hit, b_lens, b_flat

    def intersect_pairs(self, a_off, a_val, a_ids, offsets, values, rows,
                        metrics: KernelMetrics, *,
                        warps: int = 1, record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        off = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return off, _EMPTY_I64
        a_ids = np.asarray(a_ids, dtype=np.int64)
        if _trace.enabled:
            _trace.tally_kernel(
                "intersect_pairs", items=n,
                bytes_touched=8 * (int((a_off[a_ids + 1]
                                        - a_off[a_ids]).sum())
                                   + int((offsets[rows + 1]
                                          - offsets[rows]).sum())))
        got = self._pair_select(a_off, a_val, a_ids, offsets, values, rows)
        if got is None:
            return off, _EMPTY_I64
        hit, lens, flat = got
        np.cumsum(_per_row_sums(hit, lens), out=off[1:])
        return off, flat[hit]

    def intersect_pairs_sizes(self, a_off, a_val, a_ids, offsets, values,
                              rows, metrics: KernelMetrics, *,
                              warps: int = 1, record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        a_ids = np.asarray(a_ids, dtype=np.int64)
        if _trace.enabled:
            _trace.tally_kernel(
                "intersect_pairs_sizes", items=n,
                bytes_touched=8 * (int((a_off[a_ids + 1]
                                        - a_off[a_ids]).sum())
                                   + int((offsets[rows + 1]
                                          - offsets[rows]).sum())))
        got = self._pair_select(a_off, a_val, a_ids, offsets, values, rows)
        if got is None:
            return np.zeros(n, dtype=np.int64)
        hit, lens, _ = got
        return _per_row_sums(hit, lens)

    def bitmap_pairs(self, a_off, a_idx, a_val, a_ids, htb, rows,
                     metrics: KernelMetrics, *,
                     warps: int = 1, keys_in_shared: bool = True,
                     record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        off = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return off, _EMPTY_I64, _EMPTY_U64, np.zeros(0, dtype=np.int64)
        b_pos, b_lens = row_positions(htb.off, rows)
        if len(a_idx) == 0 or len(b_pos) == 0:
            return off, _EMPTY_I64, _EMPTY_U64, np.zeros(n, dtype=np.int64)
        if _trace.enabled:
            aids = np.asarray(a_ids, dtype=np.int64)
            _trace.tally_kernel(
                "bitmap_pairs", items=n,
                bytes_touched=16 * (int((a_off[aids + 1]
                                         - a_off[aids]).sum())
                                    + int(b_lens.sum())))
        b_idx = htb.idx[b_pos]
        pos, hit = self._pair_hits(a_off, a_idx,
                                   np.asarray(a_ids, dtype=np.int64),
                                   b_idx, b_lens)
        masks = a_val[pos[hit]] & htb.val[b_pos[hit]]
        nz = masks != 0
        keep = hit.copy()
        keep[hit] = nz
        out_val = masks[nz]
        np.cumsum(_per_row_sums(keep, b_lens), out=off[1:])
        weights = np.zeros(len(keep), dtype=np.int64)
        weights[keep] = popcount(out_val).astype(np.int64, copy=False)
        return off, b_idx[keep], out_val, _per_row_sums(weights, b_lens)

    def bitmap_pairs_counts(self, a_off, a_idx, a_val, a_ids, htb, rows,
                            metrics: KernelMetrics, *,
                            warps: int = 1, keys_in_shared: bool = True,
                            record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        b_pos, b_lens = row_positions(htb.off, rows)
        if len(a_idx) == 0 or len(b_pos) == 0:
            return np.zeros(n, dtype=np.int64)
        if _trace.enabled:
            aids = np.asarray(a_ids, dtype=np.int64)
            _trace.tally_kernel(
                "bitmap_pairs_counts", items=n,
                bytes_touched=16 * (int((a_off[aids + 1]
                                         - a_off[aids]).sum())
                                    + int(b_lens.sum())))
        pos, hit = self._pair_hits(a_off, a_idx,
                                   np.asarray(a_ids, dtype=np.int64),
                                   htb.idx[b_pos], b_lens)
        masks = a_val[pos[hit]] & htb.val[b_pos[hit]]
        weights = np.zeros(len(hit), dtype=np.int64)
        weights[hit] = popcount(masks).astype(np.int64, copy=False)
        return _per_row_sums(weights, b_lens)

"""Hybrid DFS-BFS frontier traversal for the batch-kernel engine.

The per-root recursion in :mod:`repro.core.gbl` / :mod:`repro.core.gbc`
batches one recursion node at a time, so a sparse graph hands the
engine frontiers of two or three candidates — far too little work to
amortise a kernel dispatch.  This module restores the paper's launch
shape, and its memory bound (§IV, Fig. 11): **BFS inside a word
budget, DFS across budgets**.  A level lives in ragged CSR-style arrays
(an ``offsets`` array delimiting one row per live task), candidates
carry their task id, and each batch of a level goes to a constant
number of pairwise kernels (:meth:`repro.engine.base.KernelBackend
.intersect_pairs` and friends) however many roots or candidates it
holds.  What a batch may hold is :data:`FRONTIER_WORD_BUDGET` words:

* the roots are cut into chunks whose first-level rows fit the budget;
* at every level, each (task, candidate) pair's gather words follow
  from the probed row lengths before any kernel call, and the level's
  pairs are cut into consecutive slices that fit the budget (at least
  one pair each, so a single wide pair still runs);
* each slice's kernels see only the key rows of the tasks it touches,
  and the traversal descends into a slice's live children before it
  starts the next slice.

So the live arrays are one budget-sized slice per search depth, not a
whole level.  Counts are bit-identical to the per-root recursion: the
same (candidate, adjacency-row) intersections run with the same
``>= q`` / ``>= p - depth - 1`` survivor guards, only grouped by slice
instead of by root, and the binomial sum is an exact integer so
regrouping cannot change it.  The drivers route through here only for
engines that declare ``frontier = True`` (the native backend); ``sim``
keeps the per-root path, whose call-for-call accounting is
golden-pinned.  The frontier runs through ``engine.map_shards`` like
every root loop (:func:`frontier_over_shards`).
"""

from __future__ import annotations

import numpy as np

from repro.core.device_common import comb_sum
from repro.graph.csr import gather_rows, row_lengths, row_positions

__all__ = ["csr_frontier_count", "htb_frontier_count",
           "frontier_over_shards", "decode_bitmap_rows",
           "FRONTIER_WORD_BUDGET"]

#: 4-byte words one frontier batch may hold: a root chunk's first-level
#: rows, or one level slice's gathered rows (plus, on HTBs, the decode
#: its children's candidate rows will need).  Picked from a sweep over
#: 2^16-2^22 on the full and bench stand-ins (docs/ARCHITECTURE.md):
#: smaller budgets pay dispatch per slice, larger ones give back RSS
FRONTIER_WORD_BUDGET = 1 << 18

#: footprint, in 4-byte words, of one element of a live or gathered
#: row: an int64 per CSR element, an int64 idx plus a uint64 val per
#: HTB word
_CSR_WORDS = 2
_HTB_WORDS = 4
#: ``decode_bitmap_rows`` unpacks each stored CL word into 64 flag bytes
_DECODE_WORDS = 16

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _offsets(lens: np.ndarray) -> np.ndarray:
    """Ragged-row offsets (length ``len(lens) + 1``) from row lengths."""
    off = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    return off


def _select_rows(off: np.ndarray, flats: tuple, keep: np.ndarray) -> tuple:
    """Keep a subset of ragged rows: new offsets plus each masked flat."""
    lens = np.diff(off)
    mask = np.repeat(keep, lens)
    return (_offsets(lens[keep]), *(flat[mask] for flat in flats))


def _window(off: np.ndarray, flats: tuple, t0: int, t1: int) -> tuple:
    """Rows ``t0 .. t1 - 1`` of a ragged level as views: rebased offsets
    plus each flat array's span."""
    lo, hi = off[t0], off[t1]
    return (off[t0:t1 + 1] - lo, *(flat[lo:hi] for flat in flats))


def _slices(words: np.ndarray, budget: int):
    """Cut items with per-item ``words`` into consecutive ``(start,
    stop)`` ranges whose words sum to at most ``budget``; an item that
    alone exceeds the budget gets a range of its own.  The one cutting
    rule of both traversals, for root chunks and level slices alike."""
    n = len(words)
    if n == 0:
        return
    csum = np.cumsum(words)
    if csum[-1] <= budget:
        yield 0, n
        return
    start, base = 0, 0
    while start < n:
        stop = max(int(csum.searchsorted(base + budget, side="right")),
                   start + 1)
        yield start, stop
        base = int(csum[stop - 1])
        start = stop


def decode_bitmap_rows(off: np.ndarray, idx: np.ndarray, val: np.ndarray,
                       word_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode ragged truncated-bitmap rows to ragged sorted vertex rows.

    One ``unpackbits`` over the whole level replaces a per-task
    ``BitmapSet.vertices()`` call.  Bit ``i`` of the flat uint64 view
    belongs to word ``i // 64``; only the low ``word_bits`` bits of a
    word are ever set, so the in-word position is the vertex residue.
    """
    num_rows = len(off) - 1
    if len(val) == 0:
        return _EMPTY_I64, np.zeros(num_rows, dtype=np.int64)
    flags = np.unpackbits(np.ascontiguousarray(val).view(np.uint8),
                          bitorder="little")
    nz = np.flatnonzero(flags)
    word, bit = nz >> 6, nz & 63
    verts = idx[word] * word_bits + bit
    pops = np.bitwise_count(val).astype(np.int64)
    csum = np.zeros(len(pops) + 1, dtype=np.int64)
    np.cumsum(pops, out=csum[1:])
    return verts, csum[off[1:]] - csum[off[:-1]]


def frontier_over_shards(engine, count, roots,
                         weights: np.ndarray) -> tuple[int, int]:
    """Run ``count(shard_roots) -> (total, peak_words)`` over
    ``engine.map_shards``, each shard's roots in ascending order; sums
    the totals and keeps the largest peak."""
    roots = np.asarray(roots, dtype=np.int64)
    total, peak = 0, 0
    for _, (part_total, part_peak) in engine.map_shards(
            lambda idxs: count(roots[np.sort(np.asarray(idxs,
                                                        dtype=np.int64))]),
            len(roots), weights=weights):
        total += part_total
        peak = max(peak, part_peak)
    return total, peak


class _Walk:
    """Shared state of one budgeted traversal: the running total and
    the peak, in words, of live rows on the DFS stack plus one slice's
    gathered and staged rows."""

    def __init__(self, engine, metrics, p: int, q: int, warps: int,
                 budget: int) -> None:
        self.engine, self.metrics = engine, metrics
        self.p, self.q, self.warps = p, q, warps
        self.budget = budget
        self.total, self.peak = 0, 0

    def note(self, words: int) -> None:
        self.peak = max(self.peak, int(words))

    def run(self, roots: np.ndarray, root_words: np.ndarray, first_level
            ) -> tuple[int, int]:
        """Walk every root chunk whose first-level rows fit the budget,
        ``first_level(chunk)`` gathering those rows."""
        for r0, r1 in _slices(root_words, self.budget):
            self.level(*first_level(roots[r0:r1]), depth=1, held=0)
        return self.total, self.peak


class _CsrWalk(_Walk):
    """Levels of CSR candidate sets: CR rows (common neighbours) and CL
    rows (candidates) per task, both sorted vertex ids."""

    def __init__(self, engine, metrics, adj_off, adj_val, idx_off, idx_val,
                 p, q, warps, budget) -> None:
        super().__init__(engine, metrics, p, q, warps, budget)
        self.adj_off, self.adj_val = adj_off, adj_val
        self.idx_off, self.idx_val = idx_off, idx_val

    def level(self, cr_off, cr_val, cl_off, cl_val, *, depth: int,
              held: int) -> None:
        held += _CSR_WORDS * (len(cr_val) + len(cl_val))
        self.note(held)
        leaf = depth + 1 == self.p
        task_of = np.repeat(np.arange(len(cl_off) - 1, dtype=np.int64),
                            np.diff(cl_off))
        # the first pairwise call, leaf or not, gathers the adjacency
        # row of every candidate; an inner level's second call gathers
        # the two-hop rows of the candidates that survive it
        adj_words = _CSR_WORDS * row_lengths(self.adj_off, cl_val)
        words = adj_words if leaf else (
            adj_words + _CSR_WORDS * row_lengths(self.idx_off, cl_val))
        for s0, s1 in _slices(words, self.budget):
            child = self._slice(cr_off, cr_val, cl_off, cl_val, task_of,
                                adj_words, s0, s1, leaf, depth, held)
            if child is not None:
                self.level(*child, depth=depth + 1, held=held)
                del child   # free this slice's children before the next

    def _slice(self, cr_off, cr_val, cl_off, cl_val, task_of, adj_words,
               s0, s1, leaf, depth, held):
        """Run pairs ``s0 .. s1 - 1`` against their tasks' key rows;
        returns the live children's level, or None."""
        engine, metrics, warps = self.engine, self.metrics, self.warps
        t0, t1 = int(task_of[s0]), int(task_of[s1 - 1]) + 1
        ids = task_of[s0:s1] - t0
        cand = cl_val[s0:s1]
        cr = _window(cr_off, (cr_val,), t0, t1)
        gathered = int(adj_words[s0:s1].sum())
        if leaf:
            sizes = engine.intersect_pairs_sizes(
                *cr, ids, self.adj_off, self.adj_val, cand, metrics,
                warps=warps)
            self.total += comb_sum(sizes, self.q)
            self.note(held + gathered)
            return None
        ncr_off, ncr_val = engine.intersect_pairs(
            *cr, ids, self.adj_off, self.adj_val, cand, metrics,
            warps=warps)
        keep = np.diff(ncr_off) >= self.q
        if not keep.any():
            self.note(held + gathered + _CSR_WORDS * len(ncr_val))
            return None
        ncl_off, ncl_val = engine.intersect_pairs(
            *_window(cl_off, (cl_val,), t0, t1), ids[keep], self.idx_off,
            self.idx_val, cand[keep], metrics, warps=warps)
        gathered += _CSR_WORDS * int(row_lengths(self.idx_off,
                                                 cand[keep]).sum())
        self.note(held + gathered
                  + _CSR_WORDS * (len(ncr_val) + len(ncl_val)))
        live = np.diff(ncl_off) >= self.p - depth - 1
        if not live.any():
            return None
        survivors = np.zeros(len(keep), dtype=bool)
        survivors[np.flatnonzero(keep)[live]] = True
        return (*_select_rows(ncr_off, (ncr_val,), survivors),
                *_select_rows(ncl_off, (ncl_val,), live))


class _HtbWalk(_Walk):
    """Levels of truncated-bitmap candidate sets: CR rows over ``htb1``
    (anchored adjacency) and CL rows over ``htb2`` (rank-filtered two
    hop), each an (idx, val) word pair per stored word."""

    def __init__(self, engine, metrics, htb1, htb2, p, q, warps,
                 budget) -> None:
        super().__init__(engine, metrics, p, q, warps, budget)
        self.htb1, self.htb2 = htb1, htb2

    def level(self, cr_off, cr_idx, cr_val, cl_off, cl_idx, cl_val, *,
              depth: int, held: int) -> None:
        held += _HTB_WORDS * (len(cr_idx) + len(cl_idx))
        self.note(held + _DECODE_WORDS * len(cl_idx))
        cand, cand_lens = decode_bitmap_rows(cl_off, cl_idx, cl_val,
                                             self.htb1.word_bits)
        held += _CSR_WORDS * len(cand)
        leaf = depth + 1 == self.p
        task_of = np.repeat(np.arange(len(cl_off) - 1, dtype=np.int64),
                            cand_lens)
        # the first call gathers each candidate's adjacency bitmap row;
        # an inner level's second call gathers its two-hop row, and a
        # child's CL row (a subset of it) is decoded one level down
        cr_words = _HTB_WORDS * row_lengths(self.htb1.off, cand)
        words = cr_words if leaf else (
            cr_words + (_HTB_WORDS + _DECODE_WORDS)
            * row_lengths(self.htb2.off, cand))
        for s0, s1 in _slices(words, self.budget):
            child = self._slice(cr_off, cr_idx, cr_val, cl_off, cl_idx,
                                cl_val, cand, task_of, cr_words, s0, s1,
                                leaf, depth, held)
            if child is not None:
                self.level(*child, depth=depth + 1, held=held)
                del child   # free this slice's children before the next

    def _slice(self, cr_off, cr_idx, cr_val, cl_off, cl_idx, cl_val, cand,
               task_of, cr_words, s0, s1, leaf, depth, held):
        """Run pairs ``s0 .. s1 - 1`` against their tasks' key rows;
        returns the live children's level, or None."""
        engine, metrics, warps = self.engine, self.metrics, self.warps
        htb1, htb2 = self.htb1, self.htb2
        t0, t1 = int(task_of[s0]), int(task_of[s1 - 1]) + 1
        ids = task_of[s0:s1] - t0
        cand = cand[s0:s1]
        cr = _window(cr_off, (cr_idx, cr_val), t0, t1)
        gathered = int(cr_words[s0:s1].sum())
        if leaf:
            counts = engine.bitmap_pairs_counts(*cr, ids, htb1, cand,
                                                metrics, warps=warps)
            self.total += comb_sum(counts, self.q)
            self.note(held + gathered)
            return None
        ncr_off, ncr_idx, ncr_val, ncr_counts = engine.bitmap_pairs(
            *cr, ids, htb1, cand, metrics, warps=warps)
        keep = ncr_counts >= self.q
        if not keep.any():
            self.note(held + gathered + _HTB_WORDS * len(ncr_idx))
            return None
        ncl_off, ncl_idx, ncl_val, ncl_counts = engine.bitmap_pairs(
            *_window(cl_off, (cl_idx, cl_val), t0, t1), ids[keep], htb2,
            cand[keep], metrics, warps=warps)
        gathered += _HTB_WORDS * int(row_lengths(htb2.off,
                                                 cand[keep]).sum())
        self.note(held + gathered
                  + _HTB_WORDS * (len(ncr_idx) + len(ncl_idx)))
        live = ncl_counts >= self.p - depth - 1
        if not live.any():
            return None
        survivors = np.zeros(len(keep), dtype=bool)
        survivors[np.flatnonzero(keep)[live]] = True
        return (*_select_rows(ncr_off, (ncr_idx, ncr_val), survivors),
                *_select_rows(ncl_off, (ncl_idx, ncl_val), live))


def csr_frontier_count(engine, metrics, adj_off, adj_val, idx_off, idx_val,
                       roots, p: int, q: int, *, warps: int = 1,
                       budget_words: int = FRONTIER_WORD_BUDGET
                       ) -> tuple[int, int]:
    """Count over CSR candidate sets, slice by budgeted slice.

    Returns ``(total, peak_words)`` where ``peak_words`` is the largest
    footprint the walk held at once, in words: the live CR/CL rows of
    every level on the DFS stack, plus one slice's gathered and staged
    rows — the hybrid analogue of the recursion's working-set peak.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if p == 1:
        return int(comb_sum(row_lengths(adj_off, roots), q)), 0

    def first_level(chunk):
        cr_val, cr_lens = gather_rows(adj_val, adj_off, chunk)
        cl_val, cl_lens = gather_rows(idx_val, idx_off, chunk)
        return _offsets(cr_lens), cr_val, _offsets(cl_lens), cl_val

    walk = _CsrWalk(engine, metrics, adj_off, adj_val, idx_off, idx_val,
                    p, q, warps, budget_words)
    root_words = _CSR_WORDS * (row_lengths(adj_off, roots)
                               + row_lengths(idx_off, roots))
    return walk.run(roots, root_words, first_level)


def htb_frontier_count(engine, metrics, htb1, htb2, roots, p: int, q: int,
                       *, warps: int = 1,
                       budget_words: int = FRONTIER_WORD_BUDGET
                       ) -> tuple[int, int]:
    """Count over truncated-bitmap candidate sets, slice by slice.

    ``htb1`` holds the anchored adjacency bitmaps (the CR side),
    ``htb2`` the rank-filtered two-hop bitmaps (the CL side) — the same
    pair the per-root HTB kernel walks.  Returns ``(total,
    peak_words)`` as :func:`csr_frontier_count` does, with a level's
    candidate decode (``decode_bitmap_rows``' unpack) counted too.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if p == 1:
        flat_val, lens = gather_rows(htb1.val, htb1.off, roots)
        pops = np.bitwise_count(flat_val).astype(np.int64)
        csum = np.zeros(len(pops) + 1, dtype=np.int64)
        np.cumsum(pops, out=csum[1:])
        ends = np.cumsum(lens)
        return int(comb_sum(csum[ends] - csum[ends - lens], q)), 0

    def first_level(chunk):
        cr_pos, cr_lens = row_positions(htb1.off, chunk)
        cl_pos, cl_lens = row_positions(htb2.off, chunk)
        return (_offsets(cr_lens), htb1.idx[cr_pos], htb1.val[cr_pos],
                _offsets(cl_lens), htb2.idx[cl_pos], htb2.val[cl_pos])

    walk = _HtbWalk(engine, metrics, htb1, htb2, p, q, warps, budget_words)
    root_words = (_HTB_WORDS * row_lengths(htb1.off, roots)
                  + (_HTB_WORDS + _DECODE_WORDS)
                  * row_lengths(htb2.off, roots))
    return walk.run(roots, root_words, first_level)

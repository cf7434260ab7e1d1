"""Level-synchronous frontier traversal for the batch-kernel engine.

The per-root recursion in :mod:`repro.core.gbl` / :mod:`repro.core.gbc`
batches one recursion node at a time, so a sparse graph hands the
engine frontiers of two or three candidates — far too little work to
amortise a kernel dispatch.  This module restores the paper's real
launch shape: **one call per search level across every root of a
chunk**.  The whole level lives in ragged CSR-style arrays (an
``offsets`` array delimiting one row per live task), candidates carry
their task id, and each level issues a constant number of pairwise
batch kernels (:meth:`repro.engine.base.KernelBackend.intersect_pairs`
and friends) regardless of how many roots or candidates are in flight.

Counts are bit-identical to the per-root recursion: the same
(candidate, adjacency-row) intersections run with the same ``>= q`` /
``>= p - depth - 1`` survivor guards, only grouped by level instead of
by root, and the binomial sum is an exact integer so regrouping cannot
change it.  The drivers route through here only for engines that
declare ``frontier = True`` (the native backend); ``sim`` keeps the
per-root path, whose call-for-call accounting is golden-pinned.  The
frontier runs through ``engine.map_shards`` like every root loop
(:func:`frontier_over_shards`).
"""

from __future__ import annotations

import numpy as np

from repro.core.device_common import comb_sum
from repro.graph.csr import gather_rows, row_lengths, row_positions

__all__ = ["csr_frontier_count", "htb_frontier_count",
           "frontier_over_shards", "decode_bitmap_rows",
           "FRONTIER_ROOT_CHUNK"]

#: roots per frontier chunk — bounds the widest level's scratch arrays
#: (the flat needle gather is proportional to the level's comparison
#: count) while keeping enough tasks in flight to amortise dispatch
FRONTIER_ROOT_CHUNK = 4096

#: footprint, in 4-byte words, of one element a pairwise kernel gathers
#: from its probed rows: an int64 value per CSR element, an int64 idx
#: plus a uint64 val per HTB word
_CSR_GATHER_WORDS = 2
_HTB_GATHER_WORDS = 4

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=np.uint64)


def _offsets(lens: np.ndarray) -> np.ndarray:
    """Ragged-row offsets (length ``len(lens) + 1``) from row lengths."""
    off = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    return off


def _select_rows(off: np.ndarray, flat: np.ndarray,
                 keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep a subset of ragged rows: new offsets plus the masked flat."""
    lens = np.diff(off)
    return _offsets(lens[keep]), flat[np.repeat(keep, lens)]


def _gathered_words(off: np.ndarray, rows: np.ndarray,
                    words_per_element: int) -> int:
    """Words one pairwise kernel call gathers: the total length of the
    rows it probes, at ``words_per_element`` words each."""
    return words_per_element * int(row_lengths(off, rows).sum())


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


def csr_frontier_count(engine, metrics, adj_off, adj_val, idx_off, idx_val,
                       roots, p: int, q: int, *, warps: int = 1,
                       root_chunk: int = FRONTIER_ROOT_CHUNK
                       ) -> tuple[int, int]:
    """Count over CSR candidate sets, one kernel call per search level.

    Returns ``(total, peak_words)`` where ``peak_words`` is the largest
    level footprint (live CL/CR rows, the rows each kernel call gathers,
    and staged children) in words — the BFS analogue of the recursion's
    working-set peak.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if p == 1:
        return int(comb_sum(row_lengths(adj_off, roots), q)), 0
    total, peak = 0, 0
    for start in range(0, len(roots), root_chunk):
        chunk = roots[start:start + root_chunk]
        cr_val, cr_lens = gather_rows(adj_val, adj_off, chunk)
        cl_val, cl_lens = gather_rows(idx_val, idx_off, chunk)
        cr_off, cl_off = _offsets(cr_lens), _offsets(cl_lens)
        depth = 1
        while len(cl_off) > 1:
            # the first pairwise call, leaf or not, gathers the
            # adjacency rows of every candidate
            level_words = len(cl_val) + len(cr_val) + _gathered_words(
                adj_off, cl_val, _CSR_GATHER_WORDS)
            task_of = np.repeat(np.arange(len(cl_off) - 1, dtype=np.int64),
                                np.diff(cl_off))
            if depth + 1 == p:
                sizes = engine.intersect_pairs_sizes(
                    cr_off, cr_val, task_of, adj_off, adj_val, cl_val,
                    metrics, warps=warps)
                total += comb_sum(sizes, q)
                peak = max(peak, level_words)
                break
            new_cr_off, new_cr_val = engine.intersect_pairs(
                cr_off, cr_val, task_of, adj_off, adj_val, cl_val,
                metrics, warps=warps)
            keep = np.diff(new_cr_off) >= q
            if not keep.any():
                peak = max(peak, level_words + len(new_cr_val))
                break
            new_cl_off, new_cl_val = engine.intersect_pairs(
                cl_off, cl_val, task_of[keep], idx_off, idx_val,
                cl_val[keep], metrics, warps=warps)
            level_words += _gathered_words(idx_off, cl_val[keep],
                                           _CSR_GATHER_WORDS)
            peak = max(peak, level_words + len(new_cr_val)
                       + len(new_cl_val))
            live = np.diff(new_cl_off) >= p - depth - 1
            cl_off, cl_val = _select_rows(new_cl_off, new_cl_val, live)
            cr_off, cr_val = _select_rows(
                *_select_rows(new_cr_off, new_cr_val, keep), live)
            depth += 1
    return total, peak


def htb_frontier_count(engine, metrics, htb1, htb2, roots, p: int, q: int,
                       *, warps: int = 1,
                       root_chunk: int = FRONTIER_ROOT_CHUNK
                       ) -> tuple[int, int]:
    """Count over truncated-bitmap candidate sets, one call per level.

    ``htb1`` holds the anchored adjacency bitmaps (the CR side),
    ``htb2`` the rank-filtered two-hop bitmaps (the CL side) — the same
    pair the per-root HTB kernel walks.  Returns ``(total,
    peak_words)`` with the live rows measured in stored (idx, val)
    word pairs, matching the recursion's 2-words-per-stored-word rule,
    plus the rows each kernel call gathers.
    """
    roots = np.asarray(roots, dtype=np.int64)
    word_bits = htb1.word_bits
    if p == 1:
        flat_val, lens = gather_rows(htb1.val, htb1.off, roots)
        pops = np.bitwise_count(flat_val).astype(np.int64)
        csum = np.zeros(len(pops) + 1, dtype=np.int64)
        np.cumsum(pops, out=csum[1:])
        ends = np.cumsum(lens)
        return int(comb_sum(csum[ends] - csum[ends - lens], q)), 0
    total, peak = 0, 0
    for start in range(0, len(roots), root_chunk):
        chunk = roots[start:start + root_chunk]
        cr_pos, cr_lens = row_positions(htb1.off, chunk)
        cr_idx, cr_val = htb1.idx[cr_pos], htb1.val[cr_pos]
        cl_pos, cl_lens = row_positions(htb2.off, chunk)
        cl_idx, cl_val = htb2.idx[cl_pos], htb2.val[cl_pos]
        cr_off, cl_off = _offsets(cr_lens), _offsets(cl_lens)
        depth = 1
        while len(cl_off) > 1:
            cand, cand_lens = decode_bitmap_rows(cl_off, cl_idx, cl_val,
                                                 word_bits)
            # the first pairwise call, leaf or not, gathers the
            # adjacency bitmap rows of every candidate
            level_words = 2 * (len(cl_idx) + len(cr_idx)) + _gathered_words(
                htb1.off, cand, _HTB_GATHER_WORDS)
            task_of = np.repeat(np.arange(len(cl_off) - 1, dtype=np.int64),
                                cand_lens)
            if depth + 1 == p:
                counts = engine.bitmap_pairs_counts(
                    cr_off, cr_idx, cr_val, task_of, htb1, cand,
                    metrics, warps=warps)
                total += comb_sum(counts, q)
                peak = max(peak, level_words)
                break
            ncr_off, ncr_idx, ncr_val, ncr_counts = engine.bitmap_pairs(
                cr_off, cr_idx, cr_val, task_of, htb1, cand,
                metrics, warps=warps)
            keep = ncr_counts >= q
            if not keep.any():
                peak = max(peak, level_words + 2 * len(ncr_idx))
                break
            ncl_off, ncl_idx, ncl_val, ncl_counts = engine.bitmap_pairs(
                cl_off, cl_idx, cl_val, task_of[keep], htb2, cand[keep],
                metrics, warps=warps)
            level_words += _gathered_words(htb2.off, cand[keep],
                                           _HTB_GATHER_WORDS)
            peak = max(peak, level_words + 2 * len(ncr_idx)
                       + 2 * len(ncl_idx))
            live = ncl_counts >= p - depth - 1
            cl_off, cl_idx = _select_rows(ncl_off, ncl_idx, live)
            _, cl_val = _select_rows(ncl_off, ncl_val, live)
            kept_off, kept_idx = _select_rows(ncr_off, ncr_idx, keep)
            _, kept_val = _select_rows(ncr_off, ncr_val, keep)
            cr_off, cr_idx = _select_rows(kept_off, kept_idx, live)
            _, cr_val = _select_rows(kept_off, kept_val, live)
            depth += 1
    return total, peak

"""Exact per-edge delta rules for (p, q)-biclique counts.

The streaming lineage the paper cites ([37] FLEET, [40] sGrapp)
maintains butterfly counts under edge updates through a wedge-closure
argument: inserting (u, v) creates one butterfly per edge of the
bipartite subgraph induced on ``N(v) \\ {u}`` x ``N(u) \\ {v}``.  That
argument generalises verbatim to arbitrary shapes:

    the number of (p, q)-bicliques containing edge (u, v) equals the
    number of (p-1, q-1)-bicliques of the subgraph induced on
    A = N(v) \\ {u}  (the other U-side vertices adjacent to v) and
    B = N(u) \\ {v}  (the other V-side vertices adjacent to u).

Every biclique through (u, v) picks its remaining p-1 U-vertices from A
and q-1 V-vertices from B, mutually adjacent — and neither A, B, nor
the edges between them involve u or v, so the quantity is identical
whether (u, v) itself is present.  Hence one function serves both
directions: insertion adds it to the running count, deletion subtracts
it.  For (p, q) = (2, 2) the induced (1, 1) count is exactly the
classic butterfly wedge-closure sum of streaming butterfly counting.

The induced count runs over Python-int bitmasks of B (arbitrary width,
``int.bit_count`` popcounts), with combinatorial short-circuits for the
degenerate sides: a (0, b)-biclique is any b-subset of B, so the p = 1
column is ``C(|B|, q-1)`` with no enumeration at all.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

__all__ = ["bicliques_containing_edge", "delta_work_estimate"]


def _intersect_sorted(row: Sequence[int], other: Sequence[int]) -> list[int]:
    """Sorted-merge intersection of two ascending sequences."""
    out: list[int] = []
    i = j = 0
    n, m = len(row), len(other)
    while i < n and j < m:
        a, b = row[i], other[j]
        if a == b:
            out.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return out


def bicliques_containing_edge(adj_u: Sequence[Sequence[int]],
                              adj_v: Sequence[Sequence[int]],
                              u: int, v: int, p: int, q: int) -> int:
    """Exact number of (p, q)-bicliques that contain edge (u, v).

    ``adj_u[x]`` is the ascending V-neighbour list of U-vertex ``x``;
    ``adj_v[y]`` the ascending U-neighbour list of V-vertex ``y``.  The
    result does not depend on whether (u, v) itself is currently in the
    adjacency, so callers may evaluate it before or after the
    structural update — insertion increases the global (p, q) count by
    exactly this value, deletion decreases it by the same.

    >>> adj_u = [[0, 1], [0, 1]]     # K_{2,2}
    >>> adj_v = [[0, 1], [0, 1]]
    >>> bicliques_containing_edge(adj_u, adj_v, 0, 0, 2, 2)
    1
    >>> bicliques_containing_edge(adj_u, adj_v, 0, 0, 1, 2)
    1
    >>> bicliques_containing_edge(adj_u, adj_v, 0, 0, 1, 1)
    1
    """
    a, b = p - 1, q - 1
    row_u = adj_u[u]
    len_b = len(row_u) - (1 if _contains(row_u, v) else 0)
    if a == 0:
        return comb(len_b, b)
    row_v = adj_v[v]
    len_a = len(row_v) - (1 if _contains(row_v, u) else 0)
    if b == 0:
        return comb(len_a, a)
    if len_a < a or len_b < b:
        return 0

    cand_b = [w for w in row_u if w != v]
    pos = {w: i for i, w in enumerate(cand_b)}
    rows: list[int] = []
    for x in row_v:
        if x == u:
            continue
        common = _intersect_sorted(adj_u[x], cand_b)
        if len(common) < b:
            continue
        mask = 0
        for w in common:
            mask |= 1 << pos[w]
        rows.append(mask)
    if len(rows) < a:
        return 0

    full = (1 << len(cand_b)) - 1

    def choose(start: int, remaining: int, mask: int) -> int:
        total = 0
        for i in range(start, len(rows) - remaining + 1):
            m = mask & rows[i]
            c = m.bit_count()
            if c < b:
                continue
            if remaining == 1:
                total += comb(c, b)
            else:
                total += choose(i + 1, remaining - 1, m)
        return total

    return choose(0, a, full)


def delta_work_estimate(adj_u: Sequence[Sequence[int]],
                        adj_v: Sequence[Sequence[int]],
                        u: int, v: int) -> int:
    """Cheap upper-ish bound on the work one delta evaluation costs.

    The dominant term of :func:`bicliques_containing_edge` is building
    the |A| row bitmasks over B — one sorted merge per wedge partner —
    so d(u) * d(v) prices the edit well enough for the delta-vs-rebuild
    cutover (the subset recursion only runs over rows that survived the
    ``>= q-1`` guard).  Work units, never wall-clock: the cutover
    decision stays deterministic.
    """
    return max(1, len(adj_u[u])) * max(1, len(adj_v[v]))


def _contains(row: Sequence[int], value: int) -> bool:
    import bisect

    i = bisect.bisect_left(row, value)
    return i < len(row) and row[i] == value

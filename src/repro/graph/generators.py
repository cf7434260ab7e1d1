"""Synthetic bipartite-graph generators.

Includes the paper's own synthetic recipe (§VII-A: power-law 2-hop richness,
then random neighbour selection), plus generic families used for testing
and the dataset stand-ins (power-law, uniform random, planted bicliques,
stars).  All generators are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphValidationError
from repro.graph.bipartite import BipartiteGraph, graph_from_pairs

__all__ = [
    "random_bipartite",
    "power_law_bipartite",
    "paper_synthetic",
    "planted_bicliques",
    "star_bipartite",
]


def _rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_bipartite(num_u: int, num_v: int, num_edges: int,
                     seed: int | None = 0,
                     name: str = "random") -> BipartiteGraph:
    """Erdos-Renyi-style bipartite graph with ~``num_edges`` distinct edges."""
    if num_edges > num_u * num_v:
        raise GraphValidationError("more edges requested than pairs exist")
    rng = _rng(seed)
    # oversample then dedup; cheap for the sparse regimes we use.  The
    # kept pairs are each batch's first occurrences not seen before, in
    # draw order, up to the target
    keys = np.empty(0, dtype=np.int64)  # u * num_v + v of the kept pairs
    while len(keys) < num_edges:
        k = int((num_edges - len(keys)) * 1.3) + 8
        us = rng.integers(0, num_u, size=k)
        vs = rng.integers(0, num_v, size=k)
        keys = np.concatenate([keys, _first_new(us * num_v + vs, keys,
                                                num_edges - len(keys))])
    return graph_from_pairs(num_u, num_v, *np.divmod(keys, max(num_v, 1)),
                            name=name)


def _first_new(drawn: np.ndarray, taken: np.ndarray, limit: int) -> np.ndarray:
    """The first ``limit`` distinct keys of ``drawn`` absent from
    ``taken``, in order of first occurrence."""
    _, first = np.unique(drawn, return_index=True)
    first.sort()
    new = drawn[first]
    return new[~np.isin(new, taken)][:limit]


def _power_law_degrees(n: int, mean_degree: float, gamma: float,
                       max_degree: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n integer degrees with a zipf-like tail, scaled to mean_degree."""
    raw = rng.zipf(gamma, size=n).astype(np.float64)
    raw = np.minimum(raw, max_degree)
    raw *= mean_degree / max(raw.mean(), 1e-9)
    deg = np.maximum(1, np.round(raw)).astype(np.int64)
    return np.minimum(deg, max_degree)


def power_law_bipartite(num_u: int, num_v: int, num_edges: int,
                        gamma: float = 2.0,
                        seed: int | None = 0,
                        name: str = "power-law") -> BipartiteGraph:
    """Power-law bipartite graph: skewed U degrees, zipf-weighted V targets.

    U-side degrees follow a truncated zipf scaled so the edge total is close
    to ``num_edges``; each u's neighbours are drawn without replacement from
    V with zipf-ranked weights, giving V a skewed degree sequence as well —
    matching the head-heavy shape of the paper's real datasets.
    """
    rng = _rng(seed)
    mean_deg = num_edges / max(num_u, 1)
    degrees = _power_law_degrees(num_u, mean_deg, gamma,
                                 max_degree=num_v, rng=rng)
    weights = 1.0 / np.arange(1, num_v + 1, dtype=np.float64)
    weights /= weights.sum()
    v_ids = rng.permutation(num_v)  # decouple weight rank from vertex id
    picks = _choice_rows(rng, degrees, weights)  # degrees are at most num_v
    us = np.repeat(np.arange(num_u, dtype=np.int64), degrees)
    return graph_from_pairs(num_u, num_v, us, v_ids[picks], name=name)


#: most doubles drawn ahead per refill of :class:`_DoubleStream`
_STREAM_CHUNK = 1 << 16
#: first-round doubles checked for repeats per vectorised pass
_CHOICE_WINDOW = 256


class _DoubleStream:
    """``rng.random`` doubles read in order, drawn ahead ``chunk`` at a
    time.

    Reading ``k`` doubles here yields exactly what ``rng.random(k)``
    would at that point of the stream; the chunks only leave the
    generator further ahead once reading stops, so a caller may use it
    only when nothing draws from ``rng`` afterwards.
    """

    def __init__(self, rng: np.random.Generator, chunk: int) -> None:
        self._rng = rng
        self._chunk = chunk
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` doubles, not consumed."""
        if self._pos + k > len(self._buf):
            self._buf = np.concatenate([self._buf[self._pos:],
                                        self._rng.random(max(k, self._chunk))])
            self._pos = 0
        return self._buf[self._pos:self._pos + k]

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` doubles, consumed."""
        out = self.peek(k)
        self._pos += k
        return out


def _choice_rows(rng: np.random.Generator, sizes: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """``rng.choice(len(weights), s, replace=False, p=weights)`` for each
    ``s`` in ``sizes``, concatenated, from the same random stream.

    numpy's weighted draw without replacement takes ``s`` doubles, maps
    them through the CDF ``cumsum(w) / cumsum(w)[-1]`` with
    ``searchsorted(side="right")`` and keeps first occurrences; only a
    row that drew a repeat zeroes the found weights, recomputes the CDF
    and redraws the shortfall, round after round.  Here the first round
    of every row maps through one precomputed CDF, a window of rows at a
    time, and only a row with a repeat runs the later rounds.  The
    doubles come from one :class:`_DoubleStream`, so ``rng`` ends up
    ahead of where per-row calls would leave it: draw nothing after.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    out = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    if len(out) == 0:
        return out
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    stream = _DoubleStream(rng, min(len(out), _STREAM_CHUNK))
    # later rounds reuse two |V|-sized buffers instead of allocating them
    # per row: the weights with found entries zeroed, and their CDF
    p, later_cdf = weights.copy(), np.empty_like(weights)
    row = 0
    while row < len(sizes):
        base = int(ends[row] - sizes[row])
        stop = max(int(np.searchsorted(ends, base + _CHOICE_WINDOW,
                                       side="right")), row + 1)
        width = int(ends[stop - 1]) - base
        picks = cdf.searchsorted(stream.peek(width), side="right")
        # a repeat within a row shows as two equal (row, pick) keys
        seg = np.repeat(np.arange(stop - row, dtype=np.int64),
                        sizes[row:stop])
        key = np.sort(seg * len(weights) + picks)
        repeats = key[1:][key[1:] == key[:-1]]
        if len(repeats) == 0:
            out[base:base + width] = picks
            stream.take(width)
            row = stop
            continue
        row += int(repeats[0] // len(weights))
        clean = int(ends[row] - sizes[row]) - base
        out[base:base + clean] = picks[:clean]
        stream.take(clean)
        out[base + clean:int(ends[row])] = _choice_one(
            stream, int(sizes[row]), weights, cdf, p, later_cdf)
        row += 1
    return out


def _choice_one(stream: _DoubleStream, size: int, weights: np.ndarray,
                cdf: np.ndarray, p: np.ndarray,
                later_cdf: np.ndarray) -> np.ndarray:
    """One row of numpy's weighted draw without replacement, round by
    round (``cdf`` is the first round's).  ``p`` equals ``weights`` on
    entry and on return; ``later_cdf`` is scratch."""
    found = np.zeros(size, dtype=np.int64)
    n_uniq = 0
    while n_uniq < size:
        x = stream.take(size - n_uniq)
        if n_uniq > 0:
            p[found[:n_uniq]] = 0
            cdf = np.cumsum(p, out=later_cdf)
            cdf /= cdf[-1]
        new = cdf.searchsorted(x, side="right")
        _, first = np.unique(new, return_index=True)
        first.sort()
        new = new.take(first)
        found[n_uniq:n_uniq + new.size] = new
        n_uniq += new.size
    p[found] = weights[found]
    return found


def paper_synthetic(num_u: int, num_v: int,
                    mean_degree: float = 18.0,
                    gamma: float = 1.8,
                    locality: int = 64,
                    seed: int | None = 0,
                    name: str = "paper-synthetic") -> BipartiteGraph:
    """The paper's synthetic recipe (§VII-A), adapted to explicit parameters.

    The paper generates S1/S2 by (1) fixing |U| and |V|, (2) drawing the
    number of 2-hop neighbours of each u from a power law, adjusted to be
    *larger* than in the real datasets, and (3) randomly selecting
    neighbours accordingly.  2-hop richness grows when vertices share
    neighbours, so we draw a per-u degree from the power law and bias each
    u's neighbour picks into a window of V of width ``locality`` — small
    windows force overlap (many 2-hop neighbours and heavy intersections,
    the uneven-workload regime S1/S2 were designed to stress).
    """
    rng = _rng(seed)
    degrees = _power_law_degrees(num_u, mean_degree, gamma,
                                 max_degree=num_v, rng=rng)
    picks = []
    for u in range(num_u):
        d = int(degrees[u])
        center = int(rng.integers(0, num_v))
        width = max(locality, d + 1)
        lo = max(0, min(center - width // 2, num_v - width))
        span = min(lo + width, num_v) - lo
        picks.append(lo + rng.choice(span, size=min(d, span), replace=False))
    sizes = np.fromiter(map(len, picks), dtype=np.int64, count=num_u)
    us = np.repeat(np.arange(num_u, dtype=np.int64), sizes)
    vs = np.concatenate(picks) if picks else np.empty(0, dtype=np.int64)
    return graph_from_pairs(num_u, num_v, us, vs, name=name)


def planted_bicliques(num_u: int, num_v: int,
                      plant_sizes: list[tuple[int, int]],
                      noise_edges: int = 0,
                      seed: int | None = 0,
                      name: str = "planted") -> BipartiteGraph:
    """Random noise plus disjoint planted complete (a, b)-bicliques.

    With disjoint plants and no noise, the number of (p, q)-bicliques is
    the sum over plants of C(a, p) * C(b, q) — a second closed-form family
    for correctness tests.
    """
    rng = _rng(seed)
    plants = [np.empty(0, dtype=np.int64)]  # u * num_v + v of plant edges
    next_u, next_v = 0, 0
    for a, b in plant_sizes:
        if next_u + a > num_u or next_v + b > num_v:
            raise GraphValidationError("plants do not fit in the layer sizes")
        us = next_u + np.repeat(np.arange(a, dtype=np.int64), b)
        vs = next_v + np.tile(np.arange(b, dtype=np.int64), a)
        plants.append(us * num_v + vs)
        next_u += a
        next_v += b
    keys = np.concatenate(plants)
    pairs = num_u * num_v
    if noise_edges > pairs - len(keys):
        raise GraphValidationError(
            f"{noise_edges} noise edges requested but only "
            f"{pairs - len(keys)} pairs are free")
    # one integers() call with alternating bounds draws u, v, u, v, ...
    # exactly as alternating one-value calls would; a batch may draw past
    # the pair that completes the noise, which is safe because nothing
    # draws from rng afterwards
    bounds = np.array([num_u, num_v], dtype=np.int64)
    added = 0
    while added < noise_edges:
        need = noise_edges - added
        m = need * pairs // (pairs - len(keys)) + 8  # expect `need` new
        uv = rng.integers(0, np.tile(bounds, m)).reshape(m, 2)
        new = _first_new(uv[:, 0] * num_v + uv[:, 1], keys, need)
        keys = np.concatenate([keys, new])
        added += len(new)
    return graph_from_pairs(num_u, num_v, *np.divmod(keys, max(num_v, 1)),
                            name=name)


def star_bipartite(num_leaves: int, center_on_u: bool = True,
                   name: str = "star") -> BipartiteGraph:
    """One hub connected to every vertex of the other layer.

    Ground truth: only (1, q) (or (p, 1)) bicliques exist.
    """
    hub = np.zeros(num_leaves, dtype=np.int64)
    leaves = np.arange(num_leaves, dtype=np.int64)
    if center_on_u:
        return graph_from_pairs(1, num_leaves, hub, leaves, name=name)
    return graph_from_pairs(num_leaves, 1, leaves, hub, name=name)

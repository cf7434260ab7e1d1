"""Seeded inputs and the oracle: stand-in graphs, request and write streams.

Every graph is a Table II stand-in from ``repro.bench.datasets``.  The
workload seed picks a vertex relabelling of each stand-in (an
isomorphism: same counts and structure, new content fingerprint), and
the default seed with variant 0 is the registry graph itself.
Relabelling instead of re-drawing the generator keeps the graph mix of
every seed the same; only tie-breaks by vertex id differ.  Every seed
still hands the program inputs it has never fingerprinted, planned or
cached.

The oracle recounts outside the timed window with a different exact
method than the one that served the answer, always on ``native``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import replace

import numpy as np

from repro import BicliqueQuery, GraphSession, from_edges
from repro.bench.datasets import load_dataset

from report import DEFAULT_SEED

#: exact methods the oracle tries, in order, skipping the served one and
#: moving on when one exhausts the address-space cap
ORACLE_METHODS = ("GBC", "GBC-NB", "GBL", "BCL")


def stand_in(key: str, scale: str, seed: int, variant: int = 0):
    """The ``key`` stand-in at ``scale``, relabelled by (seed, variant)."""
    base = load_dataset(key, scale)
    if seed == DEFAULT_SEED and variant == 0:
        return base
    return relabel(base, seed, variant, key)


def relabel(graph, seed: int, variant: int, key: str):
    rng = np.random.default_rng([seed, variant, zlib.crc32(key.encode())])
    out = graph.relabeled(rng.permutation(graph.num_u),
                          rng.permutation(graph.num_v))
    return replace(out, name=f"{key}~{seed}.{variant}")


class Timer:
    """Sums the seconds spent inside ``with timer:`` blocks."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._t0


def zipf_weights(n: int, s: float = 1.0) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def spread_mix(rng, weights, count: int) -> np.ndarray:
    """``count`` choices whose totals are fixed by ``weights`` (largest
    remainders), each choice's occurrences evenly spaced over the
    sequence from a seeded phase.  Every seed offers the same mix at the
    same rate, so the caches see the same reuse distances and only the
    interleaving differs."""
    quota = np.asarray(weights, dtype=np.float64) * count
    totals = np.floor(quota).astype(np.int64)
    short = count - int(totals.sum())
    totals[np.argsort(totals - quota)[:short]] += 1
    choice = np.repeat(np.arange(len(totals)), totals)
    slot = np.concatenate([(np.arange(n) + rng.uniform()) / n
                           for n in totals if n])
    return choice[np.argsort(slot, kind="stable")]


def fixed_schedule(count: int, seconds: float) -> np.ndarray:
    """``count`` due times evenly spaced over ``seconds``."""
    return (np.arange(count) + 0.5) * (seconds / count)


def edge_set(graph) -> set[tuple[int, int]]:
    us = np.repeat(np.arange(graph.num_u), np.diff(graph.u_offsets))
    return set(zip(us.tolist(), graph.u_neighbors.tolist()))


def toggle_stream(graph, rng, count: int) -> list[tuple[int, int]]:
    """``count`` edge toggles on ``graph``: half delete a present edge,
    half insert an absent one, so the edge count stays level."""
    edges = edge_set(graph)
    present = sorted(edges)
    out = []
    for _ in range(count):
        if present and rng.random() < 0.5:
            i = int(rng.integers(len(present)))
            edge = present[i]
            present[i] = present[-1]
            present.pop()
            edges.discard(edge)
        else:
            while True:
                edge = (int(rng.integers(graph.num_u)),
                        int(rng.integers(graph.num_v)))
                if edge not in edges:
                    break
            edges.add(edge)
            present.append(edge)
        out.append(edge)
    return out


def graph_at_epoch(graph, toggles, epoch: int):
    """``graph`` with the first ``epoch`` toggles applied."""
    edges = edge_set(graph)
    for edge in toggles[:epoch]:
        edges.symmetric_difference_update({edge})
    return from_edges(graph.num_u, graph.num_v, sorted(edges),
                      name=f"{graph.name}@{epoch}")


def oracle_count(graph, p: int, q: int, served: str) -> int:
    """An exact count by a method other than ``served``, on native."""
    query = BicliqueQuery(p, q)
    for method in ORACLE_METHODS:
        if method == served:
            continue
        try:
            result = GraphSession(graph).count(query, method,
                                               backend="native",
                                               use_cache=False)
        except MemoryError:
            continue
        return int(result.count)
    raise MemoryError(f"no oracle method fits the cap for {graph.name} "
                      f"({p},{q})")


def check_answers(answers: list[dict], graphs: dict) -> int:
    """Mark each answer ``wrong`` or not against one oracle count per
    (graph, shape, served method); returns how many were wrong."""
    truth: dict[tuple, int] = {}
    for ans in answers:
        key = (ans["graph"], ans["p"], ans["q"], ans["served"])
        if key not in truth:
            truth[key] = oracle_count(graphs[ans["graph"]], *key[1:])
        ans["wrong"] = ans["count"] != truth[key]
    return sum(ans["wrong"] for ans in answers)

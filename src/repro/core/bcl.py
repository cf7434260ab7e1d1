"""BCL — the state-of-the-art CPU algorithm of Yang et al. [53] (§III-A).

Backtracking enumeration anchored on one layer: partial result ``L`` grows
one vertex at a time from the candidate set ``CL`` (mutual 2-hop
neighbours sharing >= q common neighbours), while ``CR`` (common 1-hop
neighbours) shrinks by intersection; reaching |L| = p contributes
C(|CR|, q) bicliques.  Duplicate suppression uses the vertex priority of
Definition 2: the 2-hop index only stores lower-priority (higher-rank)
neighbours, so each L is generated exactly once in priority order.

The Fig. 1(b) breakdown (wall time and comparison counts split into the
2-hop candidate intersections — ``comp_s``: CL updates + N2^q
construction — and the 1-hop intersections — ``comp_h``: CR updates, with
everything else under ``other``) is *opt-in*: it runs by default on the
instrumented simulated backend, and is compiled out entirely when the
caller only wants a count (``backend="fast"`` or ``instrument=False``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from repro.core.counts import BicliqueQuery, CountResult
from repro.core.device_common import DeviceInputs, prepare_device_inputs
from repro.engine.base import KernelBackend, resolve_backend
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.csr import row_lengths
from repro.graph.twohop import TwoHopIndex
from repro.plan.registry import MethodSpec, register_method

__all__ = ["bcl_count", "bcl_per_root_profile", "BCLProfile", "count_root",
           "SCALAR_RATES"]


@dataclass
class BCLProfile:
    """Per-run instrumentation of BCL (feeds Fig. 1(b) and BCLP)."""

    seconds_two_hop: float = 0.0     # "Comp. S": shared 2-hop searches
    seconds_one_hop: float = 0.0     # "Comp. H'": shared 1-hop searches
    seconds_total: float = 0.0
    comparisons_two_hop: int = 0
    comparisons_one_hop: int = 0
    per_root_seconds: list[float] = field(default_factory=list)
    per_root_counts: list[int] = field(default_factory=list)
    root_ids: list[int] = field(default_factory=list)

    @property
    def seconds_other(self) -> float:
        return max(self.seconds_total
                   - self.seconds_two_hop - self.seconds_one_hop, 0.0)

    def fraction_intersections(self) -> float:
        """Share of runtime spent searching shared 1-/2-hop neighbours."""
        if self.seconds_total <= 0:
            return 0.0
        return (self.seconds_two_hop + self.seconds_one_hop) / self.seconds_total


def count_root(graph: BipartiteGraph, index: TwoHopIndex,
               root: int, p: int, q: int, engine: KernelBackend,
               profile: BCLProfile | None = None,
               instrument: bool = False) -> int:
    """Count all bicliques whose highest-priority U-vertex is ``root``.

    The one scalar per-root search of the package: BCL, Basic (over its
    id-order index), the estimator and
    :func:`repro.partition.runner.count_roots` all call it.  With
    ``instrument`` the merges are timed and their comparisons counted
    into ``profile`` (the Fig. 1(b) breakdown).
    """
    cr0 = graph.neighbors(LAYER_U, root)
    if len(cr0) < q:
        return 0
    if p == 1:
        return comb(len(cr0), q)
    cl0 = index.of(root)
    if len(cl0) < p - 1:
        return 0
    total = 0
    cmp_cell = [0]

    def rec(depth: int, cl: np.ndarray, cr: np.ndarray) -> None:
        nonlocal total
        for u in cl:
            u = int(u)
            if instrument:
                t0 = time.perf_counter()
                cmp_cell[0] = 0
                new_cr = engine.merge(cr, graph.neighbors(LAYER_U, u),
                                      cmp_cell)
                profile.seconds_one_hop += time.perf_counter() - t0
                profile.comparisons_one_hop += cmp_cell[0]
            else:
                new_cr = engine.merge(cr, graph.neighbors(LAYER_U, u))
            if len(new_cr) < q:
                continue
            if depth + 1 == p:
                total += comb(len(new_cr), q)
                continue
            if instrument:
                t0 = time.perf_counter()
                cmp_cell[0] = 0
                new_cl = engine.merge(cl, index.of(u), cmp_cell)
                profile.seconds_two_hop += time.perf_counter() - t0
                profile.comparisons_two_hop += cmp_cell[0]
            else:
                new_cl = engine.merge(cl, index.of(u))
            if len(new_cl) < p - depth - 1:
                continue
            rec(depth + 1, new_cl, new_cr)

    rec(1, cl0, cr0)
    return total


def _enumerate_chunk(inputs: DeviceInputs, positions,
                     engine: KernelBackend, instrument: bool) -> BCLProfile:
    """Enumerate the roots at ``positions`` of ``inputs.roots`` into a
    fresh partial profile."""
    part = BCLProfile()
    for pos in positions:
        root = int(inputs.roots[pos])
        r0 = time.perf_counter()
        got = count_root(inputs.graph, inputs.index, root, inputs.p,
                         inputs.q, engine, part, instrument)
        part.per_root_seconds.append(time.perf_counter() - r0)
        part.per_root_counts.append(got)
    return part


def _run_bcl(graph: BipartiteGraph, query: BicliqueQuery,
             layer: str | None, engine: KernelBackend, instrument: bool,
             session=None) -> tuple[BCLProfile, str]:
    """Prepare the root set, enumerate it, and return the profile and
    anchored layer.

    Preparation is timed as 2-hop search work, which is what it is.
    The promising roots run through ``engine.map_shards`` (one shard on
    a serial engine, one LPT shard per forked child on ``native`` with
    ``workers=N``; weights:
    second-level sizes, the paper's edge-oriented proxy), and the
    partial profiles are scattered back into priority order, so
    per-root data and the total are independent of worker count.
    """
    profile = BCLProfile()
    start = time.perf_counter()
    inputs = prepare_device_inputs(graph, query, layer, session=session)
    profile.seconds_two_hop += time.perf_counter() - start
    n = len(inputs.roots)
    secs, cnts = [0.0] * n, [0] * n
    weights = row_lengths(inputs.index.offsets,
                          inputs.roots).astype(np.float64)
    for idxs, part in engine.map_shards(
            lambda idxs: _enumerate_chunk(inputs, idxs, engine, instrument),
            n, weights=weights):
        profile.seconds_one_hop += part.seconds_one_hop
        profile.seconds_two_hop += part.seconds_two_hop
        profile.comparisons_one_hop += part.comparisons_one_hop
        profile.comparisons_two_hop += part.comparisons_two_hop
        for pos, i in enumerate(idxs):
            secs[i] = part.per_root_seconds[pos]
            cnts[i] = part.per_root_counts[pos]
    profile.per_root_seconds = secs
    profile.per_root_counts = cnts
    profile.root_ids = inputs.roots.tolist()
    profile.seconds_total = time.perf_counter() - start
    return profile, inputs.anchored_layer


def bcl_count(graph: BipartiteGraph, query: BicliqueQuery,
              layer: str | None = None,
              backend: KernelBackend | str | None = None,
              instrument: bool | None = None,
              workers: int | None = None,
              session=None) -> CountResult:
    """Run BCL and return the exact count.

    ``instrument`` controls the per-call Fig. 1(b) timers and comparison
    cells; it defaults to the backend's ``instrumented`` flag (on for the
    simulated engine, off for the fast one), so an uninstrumented run
    reports an empty breakdown but an identical count.  With
    ``workers=N`` (on ``native``) the promising roots are sharded over N
    forked children — the count is identical regardless.
    ``session=`` (a :class:`repro.query.GraphSession`) serves the
    priority order and two-hop index from the per-graph caches.
    """
    engine = resolve_backend(backend, workers=workers)
    if instrument is None:
        instrument = engine.instrumented
    profile, anchored = _run_bcl(graph, query, layer, engine, instrument,
                                 session)
    breakdown = {
        "comp_s_seconds": profile.seconds_two_hop,
        "comp_h_seconds": profile.seconds_one_hop,
        "other_seconds": profile.seconds_other,
        "intersection_fraction": profile.fraction_intersections(),
    } if instrument else {}
    extras = {
        "comparisons_two_hop": float(profile.comparisons_two_hop),
        "comparisons_one_hop": float(profile.comparisons_one_hop),
    } if instrument else {}
    return CountResult(
        algorithm="BCL",
        query=query,
        count=sum(profile.per_root_counts),
        wall_seconds=profile.seconds_total,
        anchored_layer=anchored,
        breakdown=breakdown,
        extras=extras,
        backend=engine.name,
        backend_instrumented=engine.instrumented,
    )


def bcl_per_root_profile(graph: BipartiteGraph, query: BicliqueQuery,
                         layer: str | None = None,
                         backend: KernelBackend | str | None = None,
                         instrument: bool | None = None,
                         workers: int | None = None,
                         session=None) -> BCLProfile:
    """Run BCL and return the full per-root profile (BCLP's input).

    Per-root wall times are always collected (they are the profile's
    purpose); the per-call breakdown follows ``instrument`` as in
    :func:`bcl_count`.
    """
    engine = resolve_backend(backend, workers=workers)
    if instrument is None:
        instrument = engine.instrumented
    return _run_bcl(graph, query, layer, engine, instrument, session)[0]


#: work-bound units per second of a cold count whose search is
#: :func:`count_root` — BCL, BCLP and the estimator — per engine (see
#: :attr:`repro.plan.registry.MethodSpec.rates`).  ``native`` runs the
#: same scalar code as ``fast``, so they share one rate: the geometric
#: mean of bound/seconds over cold BCL and BCLP counts on the bench
#: stand-ins (0.5-6.2M, 2-vCPU host)
SCALAR_RATES = {"sim": 1.3e6, "fast": 1.7e6, "native": 1.7e6}

register_method(MethodSpec(
    name="BCL",
    runner=bcl_count,
    accepts=("layer", "backend", "workers", "session"),
    rates=SCALAR_RATES,
    order=20,
    summary="priority-ordered CPU state of the art (§III-A)",
))

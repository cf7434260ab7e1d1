"""Sampling-based approximate (p, q)-biclique counting.

The exact count explodes combinatorially with (p, q); the literature the
paper builds on uses sampling when exactness is unnecessary (butterfly
estimation [36], near-clique sampling [33]).  This module implements a
*root-sampling* estimator over the same duplicate-free search space as
the exact counters:

1. every root's search tree is an independent summand of the total
   (that independence is what the paper parallelises);
2. sample m roots with probability proportional to an importance weight
   (their second-level size, the pre-runtime balance proxy), count their
   subtrees exactly, and form the Horvitz-Thompson estimate.

The estimator is unbiased for any weighting (proved by linearity — each
root's contribution is inflated by 1/(m * pi_i)); tests check exactness
in expectation over fixed seeds and exact recovery when m = all roots.

Since the approx tier became a first-class counting method the module
has two public faces: :func:`estimate_count` returns the raw
:class:`EstimateResult` (estimate, std_error, ci95), and
:func:`approx_count` is the registered ``"approx"``
:class:`~repro.plan.registry.MethodSpec` runner — a normal
:class:`~repro.core.counts.CountResult` whose ``extras`` carry the
(ε, δ)-style diagnostics (``estimate``/``std_error``/``ci95``/
``samples``/``population``/``seed``), dispatchable through
:func:`repro.plan.execute_plan` like every exact counter.  The estimate
depends only on the seed and the per-root integer counts, never on the
engine's timing, so one seed gives bit-identical results on every
backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import sqrt

import numpy as np

from repro.core.bcl import BCLProfile, count_root
from repro.core.counts import BicliqueQuery, CountResult
from repro.core.device_common import prepare_device_inputs
from repro.engine.base import KernelBackend, resolve_backend
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.twohop import build_two_hop_index
from repro.plan.registry import CostSignals, MethodSpec, register_method

__all__ = ["DEFAULT_SAMPLES", "EstimateResult", "Z95", "approx_cost",
           "approx_count", "estimate_count", "RootProbe",
           "sample_root_profile"]

#: z-value of the two-sided 95% normal interval ``ci95`` reports
Z95 = 1.959963984540054

#: sample budget when neither the caller nor the planner sizes one
DEFAULT_SAMPLES = 64


@dataclass
class EstimateResult:
    """A sampled estimate with its sampling diagnostics."""

    query: BicliqueQuery
    estimate: float
    std_error: float
    samples: int
    population: int
    wall_seconds: float
    anchored_layer: str = LAYER_U

    @property
    def ci95(self) -> float:
        """Half-width of the normal-approximation 95% confidence
        interval (0.0 on the exact-recovery path, where the estimate is
        the true count with zero variance)."""
        return Z95 * self.std_error

    def ci_bounds(self, z: float = Z95) -> tuple[float, float]:
        """The ``estimate ± z * std_error`` interval as (low, high)."""
        return (self.estimate - z * self.std_error,
                self.estimate + z * self.std_error)

    def relative_error(self, truth: int) -> float:
        """|estimate - truth| / truth (for evaluation against exact runs)."""
        if truth == 0:
            return abs(self.estimate)
        return abs(self.estimate - truth) / truth


def estimate_count(graph: BipartiteGraph, query: BicliqueQuery,
                   samples: int = DEFAULT_SAMPLES,
                   seed: int | None = 0,
                   layer: str | None = None,
                   backend: KernelBackend | str | None = None,
                   session=None) -> EstimateResult:
    """Horvitz-Thompson root-sampling estimate of the (p, q) count.

    With ``samples`` >= the number of promising roots the estimator runs
    every tree once and returns the exact count with zero variance.
    ``session`` (a :class:`repro.query.GraphSession` over ``graph``)
    serves the anchored view and two-hop index from its caches, so a
    warm session estimates without building anything.
    """
    # the per-root profile is internal here, so the per-call breakdown
    # instrumentation is never worth its cost
    engine = resolve_backend(backend)
    start = time.perf_counter()
    inputs = prepare_device_inputs(graph, query, layer, session=session)
    g, p, q, index = inputs.graph, inputs.p, inputs.q, inputs.index
    anchored = inputs.anchored_layer
    # the sample space is indexed in vertex-id order, which is what
    # pins every seeded estimate
    roots = np.sort(inputs.roots)
    population = len(roots)
    if population == 0:
        return EstimateResult(query, 0.0, 0.0, 0, 0,
                              time.perf_counter() - start, anchored)

    if samples >= population:
        total = sum(count_root(g, index, r, p, q, engine)
                    for r in roots.tolist())
        return EstimateResult(query, float(total), 0.0, population,
                              population, time.perf_counter() - start,
                              anchored)

    # importance weights: second-level sizes (0-weight roots can still
    # carry bicliques when p == 1, so floor at 1)
    weights = np.maximum(np.diff(index.offsets)[roots], 1).astype(np.float64)
    pi = weights / weights.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(population, size=samples, replace=True, p=pi)
    contributions = np.empty(samples, dtype=np.float64)
    cache: dict[int, int] = {}
    for j, i in enumerate(picks):
        root = int(roots[int(i)])
        if root not in cache:
            cache[root] = count_root(g, index, root, p, q, engine)
        contributions[j] = cache[root] / pi[int(i)]
    estimate = float(contributions.mean())
    std_error = float(contributions.std(ddof=1) / sqrt(samples)) \
        if samples > 1 else 0.0
    return EstimateResult(query, estimate, std_error, samples, population,
                          time.perf_counter() - start, anchored)


def approx_count(graph: BipartiteGraph, query: BicliqueQuery,
                 backend: KernelBackend | str | None = None,
                 session=None,
                 layer: str | None = None,
                 samples: int | None = None,
                 seed: int | None = 0) -> CountResult:
    """The registered ``"approx"`` method: a sampled count as a
    :class:`~repro.core.counts.CountResult`.

    ``count`` is the rounded Horvitz-Thompson estimate; the sampling
    diagnostics ride in ``extras`` — ``estimate``, ``std_error``,
    ``ci95`` (the 95% half-width), ``samples``, ``population`` and the
    ``seed`` that makes the run bit-reproducible.  ``samples=None``
    (and a plan without a budget) falls back to
    :data:`DEFAULT_SAMPLES`; ``seed=None`` pins seed 0 rather than
    letting numpy draw an irreproducible one.
    """
    samples = DEFAULT_SAMPLES if samples is None else int(samples)
    seed = 0 if seed is None else int(seed)
    est = estimate_count(graph, query, samples=samples, seed=seed,
                         layer=layer, backend=backend, session=session)
    engine = resolve_backend(backend)
    return CountResult(
        algorithm="approx",
        query=query,
        count=int(round(est.estimate)),
        wall_seconds=est.wall_seconds,
        anchored_layer=est.anchored_layer,
        extras={
            "estimate": est.estimate,
            "std_error": est.std_error,
            "ci95": est.ci95,
            "samples": float(est.samples),
            "population": float(est.population),
            "seed": float(seed),
        },
        backend=engine.name,
        backend_instrumented=engine.instrumented,
    )


def approx_cost(signals: CostSignals, samples: int) -> float:
    """Predicted seconds for an approx run with this sample budget.

    The distinct-root cache bounds the enumerated work by
    ``min(samples, population)`` trees, so the predicted enumeration is
    the exact priority-order total scaled by that fraction, on top of
    the same priority prepare every priority-ordered counter pays.
    """
    population = max(signals.population, 1)
    fraction = min(1.0, samples / population)
    enum = signals.enum_seconds(signals.merge_calls,
                                signals.comparisons) * fraction
    return signals.priority_prepare_seconds() + enum


def _predicted_seconds(signals: CostSignals) -> float:
    return approx_cost(signals, DEFAULT_SAMPLES)


register_method(MethodSpec(
    name="approx",
    runner=approx_count,
    accepts=("backend", "session", "layer", "samples", "seed"),
    # the estimator is serial by construction (one rng stream); sharding
    # it would change which roots are drawn and break seed-reproducibility
    supports_partitioned=False,
    approximate=True,
    prepared_kinds=("wedges", "order", "two_hop"),
    cost=_predicted_seconds,
    order=90,
    summary="Horvitz-Thompson root sampling with ci95 error bars "
            "(the butterfly-estimation lineage, [36]/[33])",
))


# ---------------------------------------------------------------------------
# root-sampling probe for the cost-based planner (repro.plan)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootProbe:
    """Deterministic work signals from a seeded root sample.

    Unlike :class:`EstimateResult` this never reports wall-clock: the
    probe counts *merge comparisons* through the instrumented engine, so
    two probes with the same seed are bit-identical — the property the
    planner's determinism guarantee rests on.  Work is measured under
    both orders the repo's methods use: the Definition-2 priority order
    (BCL/BCLP/GBL/GBC) and Basic's id order, whose relative sizes are
    exactly what separates Basic from the rest on skewed graphs.
    """

    p: int
    q: int
    anchored_layer: str          #: layer the degree heuristic anchors on
    population: int              #: promising roots, priority order
    basic_population: int        #: promising roots, Basic's id order
    samples: int                 #: roots sampled per order (<= population)
    comparisons: float           #: HT-estimated total comparisons (priority)
    basic_comparisons: float     #: HT-estimated total comparisons (id)
    merge_calls: float           #: HT-estimated merge invocations (priority)
    basic_merge_calls: float     #: HT-estimated merge invocations (id)
    max_root_comparisons: float  #: heaviest sampled root's comparisons
    max_root_merge_calls: float  #: heaviest sampled root's merge calls
    mean_index_size: float       #: mean N2^k size over promising roots
    est_count: float             #: HT-estimated (p, q)-biclique count


class _CountingEngine:
    """Delegates ``merge`` to an engine while counting invocations —
    merge-call counts track the per-call kernel overhead that dominates
    enumeration wall time on small candidate sets, which comparison
    counts alone cannot see."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls = 0

    def merge(self, a, b, comparisons=None):
        self.calls += 1
        return self._inner.merge(a, b, comparisons)


@dataclass(frozen=True)
class _IndexProbe:
    population: int
    comparisons: float
    merge_calls: float
    est_count: float
    max_root_comparisons: float
    max_root_merge_calls: float


_EMPTY_PROBE = _IndexProbe(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _probe_index(g, index, roots: list[int], p: int, q: int,
                 samples: int, rng, engine) -> _IndexProbe:
    """Horvitz-Thompson work estimates for one rooted search space
    (``roots``: its promising roots, in vertex-id order)."""
    population = len(roots)
    if population == 0:
        return _EMPTY_PROBE

    def run(root: int) -> tuple[int, int, int]:
        profile = BCLProfile()
        counting = _CountingEngine(engine)
        count = count_root(g, index, root, p, q, counting, profile,
                           instrument=True)
        return (profile.comparisons_one_hop + profile.comparisons_two_hop,
                counting.calls, count)

    if samples >= population:
        triples = [run(r) for r in roots]
        return _IndexProbe(
            population=population,
            comparisons=float(sum(c for c, _, _ in triples)),
            merge_calls=float(sum(m for _, m, _ in triples)),
            est_count=float(sum(n for _, _, n in triples)),
            max_root_comparisons=float(max(c for c, _, _ in triples)),
            max_root_merge_calls=float(max(m for _, m, _ in triples)),
        )
    weights = np.asarray([max(index.size(r), 1) for r in roots],
                         dtype=np.float64)
    pi = weights / weights.sum()
    picks = rng.choice(population, size=samples, replace=True, p=pi)
    cache: dict[int, tuple[int, int, int]] = {}
    cmp_contrib = np.empty(samples, dtype=np.float64)
    call_contrib = np.empty(samples, dtype=np.float64)
    cnt_contrib = np.empty(samples, dtype=np.float64)
    for j, i in enumerate(picks):
        i = int(i)
        root = roots[i]
        if root not in cache:
            cache[root] = run(root)
        comparisons, calls, count = cache[root]
        cmp_contrib[j] = comparisons / pi[i]
        call_contrib[j] = calls / pi[i]
        cnt_contrib[j] = count / pi[i]
    sampled = cache.values()
    return _IndexProbe(
        population=population,
        comparisons=float(cmp_contrib.mean()),
        merge_calls=float(call_contrib.mean()),
        est_count=float(cnt_contrib.mean()),
        max_root_comparisons=float(max(c for c, _, _ in sampled)),
        max_root_merge_calls=float(max(m for _, m, _ in sampled)),
    )


def sample_root_profile(graph: BipartiteGraph, query: BicliqueQuery,
                        samples: int = 8,
                        seed: int | None = 0,
                        layer: str | None = None,
                        session=None) -> RootProbe:
    """Probe a seeded sample of root search trees and extrapolate.

    The planner's raw material (see :mod:`repro.plan.planner`): counted
    comparisons under the priority order *and* under Basic's id order,
    the promising-root populations, the mean two-hop index size, and an
    estimated count — all deterministic for a fixed ``seed``.  A
    :class:`repro.query.GraphSession` serves the indexes from its
    caches, so probing a warm session builds nothing new.
    """
    # the simulated engine's merge fills the comparison cells the probe
    # counts; a handful of sampled roots keeps its overhead negligible
    engine = resolve_backend("sim")
    inputs = prepare_device_inputs(graph, query, layer, session=session)
    g, index = inputs.graph, inputs.index
    if session is not None:
        basic_index = session.id_order_index(query.q)
    else:
        ids = np.arange(graph.num_u, dtype=np.int64)
        basic_index = build_two_hop_index(graph, LAYER_U, query.q,
                                          min_priority_rank=ids)
    rng = np.random.default_rng(seed)
    probe = _probe_index(g, index, np.sort(inputs.roots).tolist(),
                         inputs.p, inputs.q, samples, rng, engine)
    # Basic never swaps layers: probe it on the original orientation,
    # over the id-order index (no Definition-2 order to prepare)
    basic_roots = graph.degrees(LAYER_U) >= query.q
    if query.p > 1:
        basic_roots &= np.diff(basic_index.offsets) >= query.p - 1
    basic = _probe_index(graph, basic_index,
                         np.flatnonzero(basic_roots).tolist(), query.p,
                         query.q, samples, rng, engine)
    sizes = np.diff(index.offsets)[g.degrees(LAYER_U) >= inputs.q]
    mean_index_size = float(np.mean(sizes)) if len(sizes) else 0.0
    return RootProbe(
        p=query.p, q=query.q, anchored_layer=inputs.anchored_layer,
        population=probe.population, basic_population=basic.population,
        samples=min(samples, max(probe.population, basic.population)),
        comparisons=probe.comparisons,
        basic_comparisons=basic.comparisons,
        merge_calls=probe.merge_calls,
        basic_merge_calls=basic.merge_calls,
        max_root_comparisons=probe.max_root_comparisons,
        max_root_merge_calls=probe.max_root_merge_calls,
        mean_index_size=mean_index_size, est_count=probe.est_count,
    )

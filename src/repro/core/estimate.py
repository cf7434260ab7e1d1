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

from repro.core.bcl import SCALAR_RATES, count_root
from repro.core.counts import BicliqueQuery, CountResult
from repro.core.device_common import prepare_device_inputs
from repro.engine.base import KernelBackend, resolve_backend
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.plan.registry import MethodSpec, register_method

__all__ = ["DEFAULT_SAMPLES", "EstimateResult", "Z95", "approx_count",
           "estimate_count"]

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


register_method(MethodSpec(
    name="approx",
    runner=approx_count,
    accepts=("backend", "session", "layer", "samples", "seed"),
    # the estimator is serial by construction (one rng stream); sharding
    # it would change which roots are drawn and break seed-reproducibility
    supports_partitioned=False,
    approximate=True,
    prepared_kinds=("wedges", "order", "two_hop"),
    # each sampled root runs count_root, so BCL's rates price it
    rates=SCALAR_RATES,
    order=90,
    summary="Horvitz-Thompson root sampling with ci95 error bars "
            "(the butterfly-estimation lineage, [36]/[33])",
))

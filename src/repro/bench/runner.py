"""Experiment runner utilities shared by the benchmark harness.

One uniform interface over the registered algorithms: run a method by
name, extract its *headline time* (wall seconds for CPU methods,
simulated device seconds for GPU-model methods — the same convention the
paper's figures use when plotting CPU and GPU bars side by side), and
tabulate speedups.

Method dispatch itself lives in :mod:`repro.plan`: ``METHODS`` is the
registry's listing and :func:`run_method` is a thin plan/execute
wrapper, so a newly registered counter shows up here (and in the CLI,
batch engine, and serving scheduler) without touching this module.
``method="auto"`` runs the planner's rule: GBC on ``native``.

Backend selection rides along: experiments that plot transactions or
simulated device time must force ``backend="sim"`` (the default), while
pure wall-clock or correctness sweeps can pass ``backend="fast"`` to skip
the instrumentation tax entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.counts import BicliqueQuery, CountResult, DeviceRunResult
from repro.engine.base import KernelBackend
from repro.gpu.device import DeviceSpec, rtx_3090
from repro.graph.bipartite import BipartiteGraph
from repro.plan import execute_plan, method_names, plan_query, warm_session

__all__ = ["METHODS", "run_method", "headline_seconds", "MethodRun",
           "run_matrix", "speedup"]

#: the registered method names, in registry listing order (``"auto"``
#: additionally asks the planner, which runs GBC on ``native``).
#: A tuple snapshot taken when this module is imported — kept for
#: backwards compatibility with every existing ``METHODS`` consumer;
#: code that must see counters registered *after* this import (e.g. a
#: third-party drop-in) should call
#: :func:`repro.plan.method_names` directly, as the CLI does.
METHODS = method_names()


@dataclass
class MethodRun:
    """One (method, dataset, query) cell of an experiment matrix."""

    method: str
    dataset: str
    query: BicliqueQuery
    result: CountResult
    measure_seconds: float
    #: per-graph shared-session preparation time (``run_matrix`` with
    #: ``share_sessions=True`` warms every plan's prepared state up
    #: front and charges it here, never to the first warm cell's
    #: ``measure_seconds``); 0.0 for unshared runs, and the same value
    #: on every cell of one graph
    prepare_seconds: float = 0.0

    @property
    def count(self) -> int:
        return self.result.count

    @property
    def seconds(self) -> float:
        return headline_seconds(self.result)


def headline_seconds(result: CountResult) -> float:
    """The figure-comparable runtime of a result.

    Device-model algorithms report simulated device time; CPU algorithms
    report (modelled, for BCLP) wall time.  A device run executed on an
    uninstrumented backend has no simulated time, so its host wall time
    is the only meaningful number.
    """
    if isinstance(result, DeviceRunResult) and result.backend_instrumented:
        return result.device_seconds
    return result.wall_seconds


def run_method(method: str, graph: BipartiteGraph, query: BicliqueQuery,
               spec: DeviceSpec | None = None,
               threads: int = 16,
               backend: KernelBackend | str | None = None,
               workers: int | None = None,
               session=None,
               layer: str | None = None,
               options=None, ledger=None) -> CountResult:
    """Run a registered method by name — a thin plan/execute wrapper.

    The name resolves through the :mod:`repro.plan` registry (an
    unregistered name raises
    :class:`~repro.errors.UnknownMethodError`, a :class:`ValueError`);
    ``method="auto"`` runs the :class:`~repro.plan.planner.Planner`'s
    plan, GBC on ``native`` (any other engine is a
    :class:`~repro.errors.PlanError`).  ``workers`` forks ``native``'s
    root loop over that many LPT root shards; see
    :func:`repro.engine.base.resolve_backend`.
    ``session`` (a :class:`repro.query.GraphSession` over ``graph``)
    lets consecutive runs share the priority order, two-hop index and
    HTB structures.  ``layer`` pins the anchored layer (ignored by
    Basic, which always anchors on U); ``options`` are GBC feature
    toggles — for ``GBC-*`` variant names they default to the named
    ablation.  ``ledger`` (a :class:`repro.obs.ledger.CostLedger`)
    records the run's measured wall seconds for Planner calibration.
    """
    spec = spec or rtx_3090()
    plan = plan_query(graph, query, method, backend=backend,
                      workers=workers, layer=layer, session=session)
    return execute_plan(plan, graph, query, session=session, spec=spec,
                        backend=backend, options=options, threads=threads,
                        ledger=ledger)


def run_matrix(graphs: dict[str, BipartiteGraph],
               queries: list[BicliqueQuery],
               methods: list[str],
               spec: DeviceSpec | None = None,
               check_agreement: bool = True,
               backend: KernelBackend | str | None = None,
               workers: int | None = None,
               share_sessions: bool = False) -> list[MethodRun]:
    """Run every (dataset, query, method) cell; optionally cross-check
    that all methods agree on the count (they must — all are exact).

    With ``share_sessions=True`` each graph gets one
    :class:`repro.query.GraphSession`, so the reorder permutation,
    two-hop indexes and HTBs are built once per (layer, k) and reused
    across the whole (query, method) matrix of that graph.  The shared
    preparation is warmed *before* any cell runs — every plan's
    prepared state via :func:`repro.plan.warm_session` — and its wall
    time is reported per graph on :attr:`MethodRun.prepare_seconds`
    instead of being charged to whichever method happened to run first
    cold.  Per-cell ``measure_seconds`` therefore compare pure counting
    cost; unshared runs (the default) still pay preparation inside
    every cell, matching the paper's one-shot timing convention.
    """
    from repro.query import GraphSession

    spec = spec or rtx_3090()
    runs: list[MethodRun] = []
    for name, graph in graphs.items():
        session, prepare_seconds = None, 0.0
        if share_sessions:
            session = GraphSession(graph, spec=spec)
            prep0 = time.perf_counter()
            for query in queries:
                for method in methods:
                    warm_plan = plan_query(graph, query, method,
                                           backend=backend, workers=workers,
                                           session=session)
                    warm_session(session, warm_plan)
            prepare_seconds = time.perf_counter() - prep0
        for query in queries:
            counts: set[int] = set()
            for method in methods:
                t0 = time.perf_counter()
                result = run_method(method, graph, query, spec=spec,
                                    backend=backend, workers=workers,
                                    session=session)
                elapsed = time.perf_counter() - t0
                runs.append(MethodRun(method=method, dataset=name,
                                      query=query, result=result,
                                      measure_seconds=elapsed,
                                      prepare_seconds=prepare_seconds))
                counts.add(result.count)
            if check_agreement and len(counts) > 1:
                raise AssertionError(
                    f"methods disagree on {name} {query}: {sorted(counts)}")
    return runs


def speedup(baseline: MethodRun | CountResult,
            improved: MethodRun | CountResult) -> float:
    """baseline time / improved time, in headline seconds."""
    base = baseline.seconds if isinstance(baseline, MethodRun) \
        else headline_seconds(baseline)
    new = improved.seconds if isinstance(improved, MethodRun) \
        else headline_seconds(improved)
    return base / new if new > 0 else float("inf")

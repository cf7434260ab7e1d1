"""Batched multi-query engine with shared per-graph precomputation.

The paper's system pays a large fixed cost per graph — the Definition-2
priority reordering, the two-hop (N2^q) index, and the HTB bitmap views
— before a single (p, q)-biclique is counted.  A service answering many
(p, q) queries over the same graph should build those structures once
and amortise them, which is exactly what this module provides:

* :class:`GraphSession` owns the prepared state of one
  :class:`~repro.graph.bipartite.BipartiteGraph`: the wedge-enumeration
  pass per layer (kept at multiplicity 2 or more, so one pass serves
  every q >= 2; the first k = 1 structure rebuilds it in full), per-
  (layer, k) priority orders and rank-filtered two-hop indexes, HTB
  materialisations, and an LRU :class:`ResultCache` keyed by ``(graph
  fingerprint, method, p, q, backend)``.  Everything is built lazily
  and cached; construction counts are exposed on
  :attr:`GraphSession.stats` so build-once behaviour is testable, not
  aspirational.  Nothing the session holds points back at it, so a
  session nobody references (one a pool evicted) is freed at once, by
  reference counting.
* :func:`batch_count` evaluates a list of queries against one shared
  session and reports the cache traffic of the batch.

Every counter in :mod:`repro.core` accepts ``session=`` and pulls its
prepared inputs from the session instead of rebuilding them; the
classic ``gbc_count(graph, query)`` call convention is preserved as the
no-session path.

>>> from repro import BicliqueQuery, GraphSession, batch_count, gbc_count
>>> from repro import random_bipartite
>>> g = random_bipartite(num_u=30, num_v=20, num_edges=200, seed=7)
>>> batch = batch_count(g, "2x2,2x3,3x3", backend="fast")
>>> [r.count for r in batch.results]
[908, 528, 118]
>>> batch.results[0].count == gbc_count(g, BicliqueQuery(2, 2),
...                                     backend="fast").count
True
>>> batch.stats.wedge_builds   # one wedge enumeration served q=2 and q=3
1

A session persists across batches, so a repeated query is a cache hit:

>>> session = GraphSession(g)
>>> first = batch_count(session, ["3x3"], backend="fast")
>>> again = batch_count(session, ["3x3"], backend="fast")
>>> (first.cache_hits, again.cache_hits)
(0, 1)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.counts import BicliqueQuery, CountResult
from repro.core.gbc import GBCOptions
from repro.engine.base import KernelBackend, resolve_backend
from repro.errors import QueryError
from repro.gpu.device import rtx_3090
from repro.graph.bipartite import BipartiteGraph, LAYER_U, LAYER_V
from repro.graph.priority import priority_order_from_sizes, rank_from_order
from repro.graph.stats import graph_fingerprint
from repro.graph.twohop import TwoHopIndex, WedgeIndex, build_wedge_index
from repro.htb.htb import HTB, htb_from_graph, htb_from_two_hop
from repro.errors import DeadlineExceededError
from repro.obs import trace as _trace
from repro.plan import (AUTO, CountPlan, Planner, ensure_accuracy,
                        execute_plan, explicit_plan)

__all__ = ["GraphSession", "SessionStats", "ResultCache", "BatchResult",
           "batch_count", "parse_queries", "graph_fingerprint"]


def parse_queries(queries) -> list[BicliqueQuery]:
    """Normalise a query batch to a list of :class:`BicliqueQuery`.

    Accepts a comma-separated ``"PxQ"`` string (the CLI syntax), or any
    iterable mixing ``"PxQ"`` strings, ``(p, q)`` pairs, and
    :class:`BicliqueQuery` instances.  A malformed spec raises
    :class:`~repro.errors.QueryError` (a :class:`ValueError`) that names
    the offending item and what is wrong with it — a truncated ``"3x"``,
    a non-integer side, and zero/negative sizes are each called out.

    >>> parse_queries("3x3,3x4")
    [BicliqueQuery(p=3, q=3), BicliqueQuery(p=3, q=4)]
    >>> parse_queries([(2, 2), BicliqueQuery(4, 4)])
    [BicliqueQuery(p=2, q=2), BicliqueQuery(p=4, q=4)]
    >>> parse_queries("0x3")
    Traceback (most recent call last):
        ...
    repro.errors.QueryError: bad query spec '0x3': p and q must be >= 1, got (0, 3)
    """
    if isinstance(queries, str):
        queries = [part for part in queries.split(",") if part.strip()]
    out: list[BicliqueQuery] = []
    for item in queries:
        if isinstance(item, BicliqueQuery):
            out.append(item)
            continue
        if isinstance(item, str):
            parts = item.strip().lower().split("x")
            if len(parts) != 2:
                raise QueryError(f"bad query spec {item!r}; expected 'PxQ' "
                                 f"like '3x4'")
            try:
                p, q = int(parts[0]), int(parts[1])
            except ValueError:
                missing = [n for n, s in zip("pq", parts) if not s.strip()]
                what = (f"missing {' and '.join(missing)}" if missing
                        else "p and q must be integers")
                raise QueryError(
                    f"bad query spec {item!r}: {what}") from None
        else:
            try:
                p, q = item
                p, q = int(p), int(q)
            except (TypeError, ValueError):
                raise QueryError(f"bad query spec {item!r}; expected 'PxQ', "
                                 f"(p, q) or BicliqueQuery") from None
        if p < 1 or q < 1:
            raise QueryError(f"bad query spec {item!r}: p and q must be "
                             f">= 1, got ({p}, {q})")
        out.append(BicliqueQuery(p, q))
    if not out:
        raise QueryError("empty query batch")
    return out


@dataclass
class SessionStats:
    """Construction counters of a :class:`GraphSession`.

    Each counter increments once per *materialisation* of the named
    structure; cache hits leave them untouched.  The batch-engine
    guarantee — one wedge pass, one reorder permutation, one two-hop
    index and one HTB per (layer, k) regardless of batch size — is
    asserted against these counters in ``tests/query/``.
    """

    wedge_builds: int = 0       #: wedge-enumeration passes (per layer)
    order_builds: int = 0      #: priority (reorder) permutations built
    index_builds: int = 0      #: N2^k two-hop indexes materialised
    htb_adj_builds: int = 0    #: HTBs over 1-hop adjacency (per layer)
    htb_two_hop_builds: int = 0  #: HTBs over N2^k lists (per layer, k)
    prepare_calls: int = 0     #: root-set preparations served

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class ResultCache:
    """A small LRU cache of :class:`~repro.core.counts.CountResult`.

    Keys are built by :meth:`GraphSession.count` from ``(graph
    fingerprint, method, p, q, backend name, ...)``; values are the
    full result objects, so a hit returns the original run's count
    *and* its timings/metrics.  ``hits``/``misses`` make cache traffic
    observable.

    All operations are thread-safe: the serving scheduler
    (:mod:`repro.service`) hits one session's cache from many worker
    threads at once, and an unlocked ``OrderedDict.move_to_end`` under
    that load corrupts recency order or raises ``KeyError`` mid-eviction.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise QueryError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        self._data: OrderedDict[tuple, CountResult] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: tuple) -> CountResult | None:
        """The cached result for ``key``, refreshing its recency."""
        with self._lock:
            got = self._data.get(key)
            if got is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return got

    def put(self, key: tuple, value: CountResult) -> None:
        """Insert/refresh ``key``, evicting the least recently used."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


def _host_bytes(htb: HTB) -> int:
    """Host bytes held by one HTB's three arrays."""
    return htb.off.nbytes + htb.idx.nbytes + htb.val.nbytes


class GraphSession:
    """Prepared, shareable counting state for one bipartite graph.

    The session builds each precomputation product lazily, exactly
    once, and hands it to any counter that asks (every entry point in
    :mod:`repro.core` takes ``session=``):

    * :meth:`wedges` — the two-hop multiset of a layer (one wedge
      pass at multiplicity 2 or more, shared by every k >= 2);
    * :meth:`priority_order` / :meth:`priority_rank` — the Definition-2
      reorder permutation per (layer, k);
    * :meth:`two_hop_index` — the rank-filtered N2^k index per
      (layer, k);
    * :meth:`htb_pair` — the adjacency and two-hop HTBs GBC intersects;
    * :meth:`count` — a counting run through the LRU result cache.

    Sessions assume the graph is immutable (as
    :class:`~repro.graph.bipartite.BipartiteGraph` is designed to be).
    If the underlying arrays are mutated in place regardless, call
    :meth:`refresh`: it re-fingerprints the graph and drops every cache
    on a content change.

    Sessions are thread-safe: every lazy builder runs under one
    reentrant lock (reentrant because builders compose —
    :meth:`two_hop_index` needs :meth:`priority_rank` needs
    :meth:`wedges`), so concurrent counters still build each structure
    exactly once and :attr:`stats` stays exact.  The lock is *not* held
    while a count executes, so queries that found their prepared state
    warm proceed in parallel.
    """

    #: epoch of the :class:`repro.dynamic.DynamicGraphSession` snapshot
    #: this session was materialised from, or None for a static session
    epoch: int | None = None

    def __init__(self, graph: BipartiteGraph, spec=None,
                 max_cached_results: int = 256, *,
                 ledger=None) -> None:
        self._graph = graph
        self.spec = spec
        #: optional :class:`repro.obs.ledger.CostLedger` — executions
        #: report measured seconds into it, and the session's planners
        #: calibrate their prices from it
        self.ledger = ledger
        self._lock = threading.RLock()
        self._fingerprint = graph_fingerprint(graph)
        self.stats = SessionStats()
        self.results = ResultCache(max_cached_results)
        self._anchored: dict[str, BipartiteGraph] = {LAYER_U: graph}
        self._wedges: dict[str, WedgeIndex] = {}
        self._orders: dict[tuple, np.ndarray] = {}
        self._ranks: dict[tuple, np.ndarray] = {}
        self._indexes: dict[tuple, TwoHopIndex] = {}
        self._htb_adj: dict[str, HTB] = {}
        self._htb_two_hop: dict[tuple, HTB] = {}
        self._plans: dict[tuple, CountPlan] = {}

    @property
    def graph(self) -> BipartiteGraph:
        return self._graph

    @property
    def fingerprint(self) -> str:
        """Content hash of the graph at session creation / last refresh."""
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GraphSession({self._graph!r}, "
                f"fingerprint={self._fingerprint[:8]}..., "
                f"cached_results={len(self.results)})")

    def check_owns(self, graph: BipartiteGraph) -> None:
        """Raise :class:`~repro.errors.QueryError` unless this session
        wraps exactly the graph a counter was handed (identity, not
        structural equality — prepared state is per-object)."""
        if graph is not self._graph:
            raise QueryError("session wraps a different graph than the one "
                             "passed to the counter")

    # -- prepared structures -------------------------------------------
    def anchored(self, layer: str) -> BipartiteGraph:
        """The graph presented with ``layer`` as its U side."""
        with self._lock:
            got = self._anchored.get(layer)
            if got is None:
                if layer != LAYER_V:
                    raise QueryError(f"unknown layer {layer!r}")
                self._anchored[layer] = got = self._graph.swapped()
            return got

    def wedges(self, layer: str, k: int = 2) -> WedgeIndex:
        """The two-hop multiset of ``layer`` that serves threshold ``k``.

        The pass keeps the pairs with 2 or more common neighbours, so one
        pass per layer serves every k >= 2.  The first k = 1 request
        rebuilds the layer's pass at floor 1 (the full multiset) and
        replaces it; that pass then serves any k.
        """
        floor = min(int(k), 2)
        with self._lock:
            got = self._wedges.get(layer)
            if got is None or got.floor > floor:
                with _trace.span("prepare.wedges", layer=layer,
                                 floor=floor) as sp:
                    self.stats.wedge_builds += 1
                    got = build_wedge_index(self.anchored(layer), LAYER_U,
                                            floor=floor)
                    sp.annotate(pairs=len(got.neighbors), bytes=got.nbytes)
                self._wedges[layer] = got
            return got

    def priority_order(self, layer: str, k: int) -> np.ndarray:
        """The Definition-2 reorder permutation for (``layer``, ``k``)."""
        with self._lock:
            key = (layer, int(k))
            got = self._orders.get(key)
            if got is None:
                with _trace.span("prepare.order", layer=layer, k=int(k)):
                    self.stats.order_builds += 1
                    got = priority_order_from_sizes(
                        self.wedges(layer, k).n2k_sizes(k))
                self._orders[key] = got
            return got

    def priority_rank(self, layer: str, k: int) -> np.ndarray:
        """rank[vertex] = position in :meth:`priority_order`."""
        with self._lock:
            key = (layer, int(k))
            got = self._ranks.get(key)
            if got is None:
                got = rank_from_order(self.priority_order(layer, k))
                self._ranks[key] = got
            return got

    def two_hop_index(self, layer: str, k: int) -> TwoHopIndex:
        """The priority-rank-filtered N2^k index for (``layer``, ``k``)."""
        with self._lock:
            key = (layer, int(k), "priority")
            got = self._indexes.get(key)
            if got is None:
                with _trace.span("prepare.two_hop", layer=layer,
                                 k=int(k)) as sp:
                    self.stats.index_builds += 1
                    got = self.wedges(layer, k).two_hop_index(
                        k, min_priority_rank=self.priority_rank(layer, k))
                    sp.annotate(bytes=got.nbytes)
                self._indexes[key] = got
            return got

    def id_order_index(self, k: int) -> TwoHopIndex:
        """The id-rank-filtered N2^k index the Basic baseline uses
        (always anchored on U, candidates restricted to larger ids)."""
        with self._lock:
            key = (LAYER_U, int(k), "id")
            got = self._indexes.get(key)
            if got is None:
                with _trace.span("prepare.two_hop_id", k=int(k)) as sp:
                    self.stats.index_builds += 1
                    ids = np.arange(self._graph.num_u, dtype=np.int64)
                    got = self.wedges(LAYER_U, k).two_hop_index(
                        k, min_priority_rank=ids)
                    sp.annotate(bytes=got.nbytes)
                self._indexes[key] = got
            return got

    def htb_pair(self, layer: str, k: int) -> tuple[HTB, HTB]:
        """GBC's two HTBs: 1-hop adjacency (per layer) and N2^k lists
        (per layer, k)."""
        with self._lock:
            htb1 = self._htb_adj.get(layer)
            if htb1 is None:
                with _trace.span("prepare.htb_adj", layer=layer) as sp:
                    self.stats.htb_adj_builds += 1
                    htb1 = htb_from_graph(self.anchored(layer), LAYER_U)
                    sp.annotate(bytes=_host_bytes(htb1))
                self._htb_adj[layer] = htb1
            key = (layer, int(k))
            htb2 = self._htb_two_hop.get(key)
            if htb2 is None:
                with _trace.span("prepare.htb_two_hop", layer=layer,
                                 k=int(k)) as sp:
                    self.stats.htb_two_hop_builds += 1
                    htb2 = htb_from_two_hop(self.two_hop_index(layer, k))
                    sp.annotate(bytes=_host_bytes(htb2))
                self._htb_two_hop[key] = htb2
            return htb1, htb2

    def prepared(self, query: BicliqueQuery, layer: str | None = None):
        """The :class:`~repro.core.device_common.DeviceInputs` for one
        query, served from the session's caches."""
        from repro.core.device_common import prepare_device_inputs
        return prepare_device_inputs(self._graph, query, layer, session=self)

    # -- lifecycle ------------------------------------------------------
    def refresh(self) -> bool:
        """Re-fingerprint the graph; drop all caches if it changed.

        Returns True when a content change was detected (the prepared
        structures and cached results were invalidated), False when the
        graph is untouched and every cache is kept.
        """
        with self._lock:
            fp = graph_fingerprint(self._graph)
            if fp == self._fingerprint:
                return False
            self._fingerprint = fp
            self._anchored = {LAYER_U: self._graph}
            self._wedges.clear()
            self._orders.clear()
            self._ranks.clear()
            self._indexes.clear()
            self._htb_adj.clear()
            self._htb_two_hop.clear()
            self._plans.clear()
            self.results.clear()
            return True

    # -- planning ------------------------------------------------------
    def _new_planner(self) -> Planner:
        # built per call: a cached planner would point back at the
        # session, and that cycle would keep an evicted session alive
        # until the cyclic garbage collector ran
        return Planner(self._graph, session=self, ledger=self.ledger)

    def plan(self, query: BicliqueQuery, *,
             backend: KernelBackend | str | None = None,
             workers: int | None = None,
             layer: str | None = None,
             accuracy: str = "exact",
             deadline: float | None = None) -> CountPlan:
        """The ``auto`` plan for one query shape, cached per shape.

        Planning runs once per (graph, shape-class) — the (p, q) shape
        under a given engine choice — and the plan is reused for every
        later query of that shape on this session.  Prices read this
        session's prepared arrays.  ``accuracy``/``deadline`` select
        the tier as :meth:`repro.plan.planner.Planner.plan` documents;
        deadlines are request-specific wall-clock budgets, so
        deadline-carrying plans bypass the per-shape cache.
        """
        backend_key = backend.name if isinstance(backend, KernelBackend) \
            else backend
        if deadline is not None:
            # a deadline is per-request: what fits one request's budget
            # must not decide another's, so no cache on either side
            return self._new_planner().plan(
                query, backend=backend, workers=workers, layer=layer,
                accuracy=accuracy, deadline=deadline)
        key = (query.p, query.q, backend_key, workers, layer, accuracy)
        with self._lock:
            got = self._plans.get(key)
            if got is not None:
                return got
        # plan outside the lock: an approx plan prepares to price
        plan = self._new_planner().plan(query, backend=backend,
                                        workers=workers, layer=layer,
                                        accuracy=accuracy)
        with self._lock:
            return self._plans.setdefault(key, plan)

    # -- counting through the result cache -----------------------------
    def count(self, query: BicliqueQuery, method: str = "GBC", *,
              backend: KernelBackend | str | None = None,
              workers: int | None = None,
              layer: str | None = None,
              options: GBCOptions | None = None,
              threads: int = 16,
              use_cache: bool = True,
              accuracy: str = "exact",
              deadline: float | None = None) -> CountResult:
        """Run one counting query against the session's shared state.

        Results are memoised in :attr:`results` under ``(fingerprint,
        method, p, q, backend name, workers, layer, options, threads)``
        — a hit returns the *original*
        :class:`~repro.core.counts.CountResult` object without
        re-running anything, so treat results as read-only: mutating a
        returned result's ``breakdown``/``metrics`` would alter what
        later hits observe.  Counts are backend-independent, but the
        key includes backend name and worker count so cached
        timing/metric fields always match the configuration that was
        asked for.

        ``method="auto"`` resolves through :meth:`plan` first (cached
        per query shape) and executes that plan.  It runs on the engine
        an explicit request runs on (``backend=None`` is ``native``), so
        auto runs share the result cache with their explicit
        equivalents.

        ``accuracy="approx"`` plans the sampling tier (the result's
        ``extras`` carry ``estimate``/``std_error``/``ci95``/
        ``samples``); ``"auto"`` serves exact when it fits and falls
        back to approx when a ``deadline`` makes exact infeasible.
        With ``accuracy="exact"`` a ``deadline`` is a hard admission
        bound: a predicted overrun raises
        :class:`~repro.errors.DeadlineExceededError` before any work
        runs.
        """
        ensure_accuracy(accuracy)
        chosen: CountPlan | None = None
        if accuracy != "exact" and method not in (AUTO, "approx"):
            raise QueryError(
                f"accuracy={accuracy!r} lets the planner choose the "
                f"method; pass method='auto' (got {method!r})")
        if accuracy == "approx":
            chosen = self.plan(query, backend=backend, workers=workers,
                               layer=layer, accuracy="approx",
                               deadline=deadline)
        elif method == AUTO:
            chosen = self.plan(query, backend=backend, workers=workers,
                               layer=layer, accuracy=accuracy,
                               deadline=deadline)
        elif deadline is not None:
            predicted = self._new_planner().predict(
                query, method, backend=backend, workers=workers,
                layer=layer)
            if predicted > deadline:
                if accuracy == "auto":
                    chosen = self.plan(query, backend=backend,
                                       workers=workers, layer=layer,
                                       accuracy="approx",
                                       deadline=deadline)
                else:
                    raise DeadlineExceededError(
                        f"{method} predicts {predicted:.3g}s against a "
                        f"{deadline:.3g}s deadline; retry with "
                        f"accuracy='approx' or 'auto'")
        if chosen is not None:
            method = chosen.method
        engine = resolve_backend(backend, self.spec, workers=workers)
        if method == "approx":
            # estimates are keyed by their (samples, seed) budget: two
            # different budgets are different answers, not a cache hit
            approx_key = (chosen.samples, chosen.seed) \
                if chosen is not None else (None, None)
        else:
            approx_key = None
        key = (self._fingerprint, method, query.p, query.q, engine.name,
               # sharded results carry worker-dependent timings, so
               # each worker count is its own cache entry (counts are
               # worker-invariant, timing fields are not)
               getattr(engine, "workers", None),
               layer, None if options is None else repr(options),
               threads if method == "BCLP" else None,
               approx_key)
        if use_cache:
            hit = self.results.get(key)
            if hit is not None:
                return hit
        # a planned run executes the plan it made, price included, so
        # the ledger learns its observed/predicted ratio; an unplanned
        # one plans explicitly here (repro.plan.execute_plan is the one
        # dispatch site, and explicit_plan raises UnknownMethodError for
        # an unregistered name before anything runs)
        plan = chosen if chosen is not None else explicit_plan(
            self._graph, query, method, backend=engine,
            workers=getattr(engine, "workers", None), layer=layer)
        result = execute_plan(plan, self._graph, query, session=self,
                              spec=self.spec, backend=engine,
                              options=options, threads=threads)
        if use_cache:
            self.results.put(key, result)
        return result


@dataclass
class BatchResult:
    """Outcome of one :func:`batch_count` call."""

    queries: list[BicliqueQuery]
    results: list[CountResult]
    session: GraphSession
    #: result-cache traffic of *this* batch (not the session lifetime)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def counts(self) -> list[int]:
        return [r.count for r in self.results]

    @property
    def stats(self) -> SessionStats:
        return self.session.stats


def batch_count(graph: BipartiteGraph | GraphSession,
                queries: str | Iterable,
                method: str = "GBC", *,
                backend: KernelBackend | str | None = None,
                workers: int | None = None,
                layer: str | None = None,
                spec=None,
                options: GBCOptions | None = None,
                threads: int = 16,
                use_cache: bool = True,
                accuracy: str = "exact",
                deadline: float | None = None) -> BatchResult:
    """Evaluate a batch of (p, q) queries with shared precomputation.

    ``graph`` may be a raw :class:`~repro.graph.bipartite.BipartiteGraph`
    (a fresh :class:`GraphSession` is created for the batch and returned
    on the result), an existing session, which keeps its caches warm
    across batches, or anything exposing ``as_graph_session()`` — a
    :class:`repro.dynamic.DynamicGraphSession` or one of its pinned
    snapshots, in which case the whole batch evaluates against one
    consistent epoch.  ``queries`` is anything :func:`parse_queries`
    accepts.  All remaining arguments mirror the single-query entry
    points: ``method`` picks the algorithm (``"auto"`` asks the
    planner, which plans once per distinct query shape and shares the
    session's prepared state across the batch per the plan's
    requirements), ``backend``/``workers`` the execution
    engine, ``layer`` pins the anchored layer, and
    ``accuracy``/``deadline`` select the service tier per query exactly
    as :meth:`GraphSession.count` documents.

    The expensive per-graph structures — wedge enumeration, reorder
    permutation, two-hop index, HTB — are built at most once per
    (layer, k) for the whole batch, and queries repeated across batches
    of the same session are served from the LRU result cache.

    ``spec`` only applies when creating a fresh session; an existing
    session keeps the device spec it was built with, and passing a
    *different* one is an error rather than a silent override (a spec
    value-equal to the session's — including the ``rtx_3090`` default
    of a session built without one — is accepted).
    """
    if isinstance(graph, BipartiteGraph):
        session = GraphSession(graph, spec=spec)
    else:
        if isinstance(graph, GraphSession):
            session = graph
        elif hasattr(graph, "as_graph_session"):
            # an epoch-pinned dynamic graph or snapshot (repro.dynamic):
            # the batch runs against its materialised immutable session
            session = graph.as_graph_session()
        else:
            raise QueryError(
                f"batch_count needs a BipartiteGraph, GraphSession, or "
                f"dynamic session/snapshot; got {type(graph).__name__}")
        effective = session.spec if session.spec is not None else rtx_3090()
        if spec is not None and spec != effective:
            raise QueryError("spec= conflicts with the existing session's "
                             "device spec; create the GraphSession with "
                             "the spec you want")
    parsed = parse_queries(queries)
    hits0, misses0 = session.results.hits, session.results.misses
    results = [session.count(q, method, backend=backend, workers=workers,
                             layer=layer, options=options, threads=threads,
                             use_cache=use_cache, accuracy=accuracy,
                             deadline=deadline)
               for q in parsed]
    return BatchResult(
        queries=parsed,
        results=results,
        session=session,
        cache_hits=session.results.hits - hits0,
        cache_misses=session.results.misses - misses0,
    )

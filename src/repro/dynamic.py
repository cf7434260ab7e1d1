"""Mutate-while-serving: incremental (p, q) maintenance with versioned
epoch-pinned snapshots.

The ROADMAP's top open item — and the gap the paper's streaming lineage
([37] FLEET, [40] sGrapp) points at — is that production graphs are
never frozen, while every prepared structure in this repo (priority
orders, two-hop indexes, HTBs, result caches) keys on an immutable
graph fingerprint.  One edge edit used to mean: rebuild the graph,
rebuild the session, recount everything.

This module closes that gap with two cooperating objects:

* :class:`DynamicGraphSession` — a mutable bipartite graph that accepts
  an edge-mutation stream (:meth:`insert` / :meth:`delete` /
  :meth:`toggle` / :meth:`apply_batch`) and maintains **exact** counts
  for a set of *tracked* (p, q) shapes through the generalised delta
  rule of :mod:`repro.core.delta`: the bicliques through edge (u, v)
  are the (p-1, q-1)-bicliques of the subgraph induced on
  N(v)\\{u} x N(u)\\{v}, so insertion adds that quantity and deletion
  subtracts it.  When an edit lands on a hub pair whose delta would
  cost more than a scoped rebuild — priced deterministically by
  :meth:`repro.plan.Planner.predict` at :meth:`track` time — the shape
  is marked *dirty* instead and lazily recounted on the next exact read
  at the current epoch, through a pinned snapshot (the cost cutover).
  Either way every read is bit-identical to a fresh recount.
* :class:`SnapshotSession` — an immutable epoch-pinned read view.
  Adjacency rows are copy-on-write (an edit replaces the two affected
  row objects, never mutates them), so pinning is an O(num_u + num_v)
  shallow copy of row references and a snapshot can lazily materialise
  its CSR pack and :class:`~repro.query.GraphSession` *after* later
  writes have advanced the epoch, without locks and without torn
  reads.  Tracked clean shapes are answered straight from the pinned
  count table (method-invariant, zero work); everything else delegates
  to the materialised inner session.

The serving layer (:mod:`repro.service`) registers
``DynamicGraphSession`` entries in its :class:`SessionPool`; a
scheduler batch calls ``pool.session(name)`` once, so the whole batch
executes against one consistent epoch while writers race ahead.

>>> from repro import BicliqueQuery
>>> from repro.graph.generators import random_bipartite
>>> g = random_bipartite(num_u=12, num_v=10, num_edges=40, seed=3)
>>> dyn = DynamicGraphSession.from_graph(g, track=[(2, 2), (2, 3)])
>>> base = dyn.count(2, 2)
>>> created = dyn.toggle(0, 5)          # insert or delete, whichever applies
>>> dyn.count(2, 2) == dyn.recount(2, 2)
True
>>> view = dyn.pinned()                 # epoch-pinned, immutable
>>> _ = dyn.toggle(1, 5)                # writer advances past the pin
>>> view.epoch < dyn.epoch
True
>>> view.count(BicliqueQuery(2, 2)).count == dyn.count(2, 2)  # doctest: +SKIP
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.counts import BicliqueQuery, CountResult
from repro.core.delta import bicliques_containing_edge, delta_work_estimate
from repro.engine.base import resolve_backend
from repro.errors import GraphValidationError, QueryError
from repro.graph.bipartite import BipartiteGraph, LAYER_U, LAYER_V
from repro.graph.builders import from_adjacency
from repro.plan import AUTO
from repro.query import GraphSession

__all__ = ["EdgeMutation", "DynamicGraphSession", "SnapshotSession",
           "DynamicStats", "edit_stream"]

#: deterministic work-unit -> seconds scale for the cutover price of one
#: delta evaluation (see :func:`repro.core.delta.delta_work_estimate`).
#: The *ratio* against the planner's predicted rebuild seconds is what
#: matters; this constant just puts both sides in the same unit.
SECONDS_PER_WORK_UNIT = 2e-7


@dataclass(frozen=True)
class EdgeMutation:
    """One edit of the mutation stream: ``op`` in {insert, delete,
    toggle} applied to edge (u, v)."""

    op: str
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.op not in ("insert", "delete", "toggle"):
            raise GraphValidationError(
                f"unknown mutation op {self.op!r}; "
                f"expected 'insert', 'delete' or 'toggle'")

    @classmethod
    def insert(cls, u: int, v: int) -> "EdgeMutation":
        return cls("insert", u, v)

    @classmethod
    def delete(cls, u: int, v: int) -> "EdgeMutation":
        return cls("delete", u, v)

    @classmethod
    def toggle(cls, u: int, v: int) -> "EdgeMutation":
        return cls("toggle", u, v)

    def as_dict(self) -> dict:
        return {"op": self.op, "u": self.u, "v": self.v}

    @classmethod
    def from_dict(cls, data: dict) -> "EdgeMutation":
        return cls(str(data["op"]), int(data["u"]), int(data["v"]))


def edit_stream(graph: BipartiteGraph, edits: int,
                seed: int = 0) -> list[EdgeMutation]:
    """A deterministic stream of ``edits`` uniform toggles on ``graph``'s
    coordinate space — the replayable workload both benchmark arms and
    the golden mutation traces share."""
    rng = np.random.default_rng((seed, graph.num_u, graph.num_v))
    return [EdgeMutation("toggle", int(rng.integers(graph.num_u)),
                         int(rng.integers(graph.num_v)))
            for _ in range(int(edits))]


@dataclass
class DynamicStats:
    """Observability counters of one :class:`DynamicGraphSession`."""

    inserts: int = 0
    deletes: int = 0
    #: per-(edit, tracked shape) delta evaluations applied
    delta_updates: int = 0
    #: per-(edit, tracked shape) deltas skipped by the cost cutover
    cutover_deferrals: int = 0
    #: full recounts of a tracked shape (dirty repair or first track)
    recounts: int = 0
    #: epoch snapshots materialised into a GraphSession
    snapshots: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class SnapshotSession:
    """An immutable read view of a :class:`DynamicGraphSession` pinned
    at one epoch.

    Carries its own reference-copy of the copy-on-write adjacency rows
    and of the clean tracked-count table, so it stays exact no matter
    how far the writer advances afterwards.  The CSR
    :class:`~repro.graph.bipartite.BipartiteGraph` and the inner
    :class:`~repro.query.GraphSession` are materialised lazily, only
    when a read actually needs prepared state — a read of a tracked
    shape is served straight from the pinned count table.

    Every :class:`~repro.core.counts.CountResult` it returns carries
    ``extras["epoch"]``, so callers (and the mutate-while-serving
    stress tests) can verify which version answered.  ``origin`` is
    the :class:`DynamicGraphSession` that pinned it.
    """

    def __init__(self, *, name: str, epoch: int, num_u: int, num_v: int,
                 num_edges: int, rows_u: list, rows_v: list,
                 counts: dict, spec=None, max_cached_results: int = 256,
                 origin: "DynamicGraphSession | None" = None) -> None:
        self.name = name
        self.epoch = int(epoch)
        self.num_u = int(num_u)
        self.num_v = int(num_v)
        self.num_edges = int(num_edges)
        self.spec = spec
        self._rows_u = rows_u          # row objects are never mutated
        self._rows_v = rows_v
        self._counts = dict(counts)    # tracked clean shapes at this epoch
        self._max_cached_results = max_cached_results
        self._origin = origin
        self._lock = threading.RLock()
        self._graph: BipartiteGraph | None = None
        self._session: GraphSession | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SnapshotSession({self.name!r}, epoch={self.epoch}, "
                f"edges={self.num_edges}, tracked={sorted(self._counts)})")

    @property
    def counts(self) -> dict[tuple[int, int], int]:
        """The pinned tracked-shape count table (copy)."""
        return dict(self._counts)

    @property
    def graph(self) -> BipartiteGraph:
        """The CSR graph at this epoch, materialised on first use."""
        with self._lock:
            if self._graph is None:
                self._graph = from_adjacency(
                    self._rows_u, num_u=self.num_u, num_v=self.num_v,
                    name=f"{self.name}@{self.epoch}")
            return self._graph

    @property
    def session(self) -> GraphSession:
        """A prepared :class:`~repro.query.GraphSession` over
        :attr:`graph`, built on first use and stamped with this epoch."""
        with self._lock:
            if self._session is None:
                self._session = GraphSession(
                    self.graph, spec=self.spec,
                    max_cached_results=self._max_cached_results)
                self._session.epoch = self.epoch
                if self._origin is not None:
                    self._origin.stats.snapshots += 1
            return self._session

    @property
    def fingerprint(self) -> str:
        return self.session.fingerprint

    def as_graph_session(self) -> GraphSession:
        """The materialised inner session (for :func:`repro.batch_count`
        and any other ``GraphSession`` consumer)."""
        return self.session

    def count(self, query: BicliqueQuery | tuple, method: str = "GBC", *,
              backend=None, workers: int | None = None,
              layer: str | None = None, options=None, threads: int = 16,
              use_cache: bool = True, accuracy: str = "exact",
              deadline: float | None = None) -> CountResult:
        """Count one query at this pinned epoch.

        Mirrors :meth:`repro.query.GraphSession.count` (the scheduler
        calls both interchangeably).  A tracked shape with no layer or
        options override is answered from the pinned count table as a
        synthesised zero-work result with ``algorithm="delta"`` —
        counts are method-invariant, so the requested method only
        matters for *how* an untracked shape is recomputed.  A tracked
        shape is exact at zero cost, so it satisfies every accuracy
        tier and any deadline; untracked shapes forward
        ``accuracy``/``deadline`` to the inner session.

        The one path that re-cleans a shape the origin tracks as dirty:
        an exact answer with no ``layer=``/``options=`` override, while
        this epoch is still the origin's, is written back to the origin
        and into this pin's count table.
        """
        if not isinstance(query, BicliqueQuery):
            query = BicliqueQuery(int(query[0]), int(query[1]))
        pinned = self._counts.get((query.p, query.q))
        if pinned is not None and layer is None and options is None:
            return CountResult(
                algorithm="delta", query=query, count=pinned,
                wall_seconds=0.0, anchored_layer=LAYER_U,
                backend=resolve_backend(backend, workers=workers).name,
                backend_instrumented=False,
                extras={"epoch": float(self.epoch)})
        result = self.session.count(query, method, backend=backend,
                                    workers=workers, layer=layer,
                                    options=options, threads=threads,
                                    use_cache=use_cache, accuracy=accuracy,
                                    deadline=deadline)
        # cached CountResult objects are shared across hits; setdefault
        # keeps the stamp idempotent and thread-safe
        result.extras.setdefault("epoch", float(self.epoch))
        if (self._origin is not None and layer is None and options is None
                and result.algorithm != "approx"):
            self._origin._reclean(self, (query.p, query.q),
                                  int(result.count))
        return result

    def plan(self, query: BicliqueQuery, **kwargs):
        return self.session.plan(query, **kwargs)


class DynamicGraphSession:
    """A mutable bipartite graph with exact tracked (p, q) counts and
    epoch-versioned snapshots.

    Adjacency lives as two lists of **copy-on-write** sorted rows
    (``rows_u[u]`` = ascending V-neighbours of u, ``rows_v[v]`` =
    ascending U-neighbours of v): an edit builds two replacement row
    objects and swaps the references, so any
    :class:`SnapshotSession` pinned earlier keeps the old rows intact.
    Each structural edit advances :attr:`epoch` by one.

    Shapes registered via :meth:`track` are maintained exactly:

    * *delta path* — :func:`repro.core.delta.bicliques_containing_edge`
      evaluated per edit (the generalised wedge-closure rule), added on
      insert / subtracted on delete;
    * *cutover* — when :func:`~repro.core.delta.delta_work_estimate`
      times :data:`SECONDS_PER_WORK_UNIT` exceeds ``cutover_ratio`` x
      the planner-predicted rebuild seconds (priced once per shape at
      :meth:`track` time with :meth:`~repro.plan.Planner.predict` for
      the method and engine :meth:`count` recounts with), the shape is
      marked dirty and the delta skipped; the next exact read of the
      shape at the current epoch (:meth:`SnapshotSession.count`, which
      :meth:`count` reads through) recounts and re-cleans it.
      A rebuild priced 0.0 (an unpriced method such as Basic, or a
      shape without promising roots) never cuts over.

    :attr:`method` and :attr:`backend` are what a recount runs with;
    ``backend=None`` is ``native``, as at every entry point.

    Both paths are exact, so reads are bit-identical to
    :meth:`recount` at every prefix of any mutation stream — the
    property/golden suites in ``tests/property`` and ``tests/golden``
    pin exactly that.

    All methods are thread-safe: one writer lock serialises mutation
    and count-table access; readers only take it long enough to pin a
    snapshot.
    """

    def __init__(self, num_u: int, num_v: int, *, name: str = "dynamic",
                 spec=None, backend=None, method: str = "GBC",
                 cutover_ratio: float = 1.0,
                 seconds_per_work_unit: float = SECONDS_PER_WORK_UNIT,
                 max_cached_results: int = 256) -> None:
        if num_u < 1 or num_v < 1:
            raise GraphValidationError(
                f"layer sizes must be >= 1, got ({num_u}, {num_v})")
        self.name = name
        self.num_u = int(num_u)
        self.num_v = int(num_v)
        self.spec = spec
        self.backend = backend
        self.method = method
        self.cutover_ratio = float(cutover_ratio)
        self.seconds_per_work_unit = float(seconds_per_work_unit)
        self.max_cached_results = int(max_cached_results)
        self.stats = DynamicStats()
        self._lock = threading.RLock()
        self._rows_u: list[list[int]] = [[] for _ in range(self.num_u)]
        self._rows_v: list[list[int]] = [[] for _ in range(self.num_v)]
        self._num_edges = 0
        self._epoch = 0
        self._counts: dict[tuple[int, int], int] = {}
        self._dirty: set[tuple[int, int]] = set()
        #: planner-predicted full-recount seconds per tracked shape
        #: (None = never cut over, always apply the delta)
        self._rebuild_seconds: dict[tuple[int, int], float | None] = {}
        self._pinned: SnapshotSession | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_graph(cls, graph: BipartiteGraph,
                   track: Iterable[tuple[int, int]] = (),
                   **kwargs) -> "DynamicGraphSession":
        """Wrap a static graph; optionally :meth:`track` shapes."""
        kwargs.setdefault("name", graph.name)
        dyn = cls(graph.num_u, graph.num_v, **kwargs)
        dyn._rows_u = [graph.neighbors(LAYER_U, u).tolist()
                       for u in range(graph.num_u)]
        dyn._rows_v = [graph.neighbors(LAYER_V, v).tolist()
                       for v in range(graph.num_v)]
        dyn._num_edges = graph.num_edges
        for p, q in track:
            dyn.track(p, q)
        return dyn

    @classmethod
    def empty(cls, num_u: int, num_v: int, **kwargs) -> "DynamicGraphSession":
        return cls(num_u, num_v, **kwargs)

    # -- introspection --------------------------------------------------
    @property
    def epoch(self) -> int:
        """Version counter: +1 per structural edit."""
        with self._lock:
            return self._epoch

    @property
    def num_edges(self) -> int:
        with self._lock:
            return self._num_edges

    @property
    def tracked_shapes(self) -> list[tuple[int, int]]:
        with self._lock:
            return sorted(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (f"DynamicGraphSession({self.name!r}, "
                    f"{self.num_u}x{self.num_v}, edges={self._num_edges}, "
                    f"epoch={self._epoch}, tracked={sorted(self._counts)})")

    def has_edge(self, u: int, v: int) -> bool:
        with self._lock:
            row = self._rows_u[u]
            i = bisect_left(row, v)
            return i < len(row) and row[i] == v

    def resident_bytes(self) -> int:
        """Rough memory footprint for pool budget accounting."""
        with self._lock:
            return (56 * (self.num_u + self.num_v)
                    + 2 * 28 * self._num_edges)

    # -- tracking -------------------------------------------------------
    def track(self, p: int, q: int) -> int:
        """Maintain shape (p, q) incrementally from now on.

        Performs one exact baseline count and prices the full-rebuild
        alternative — a recount with :attr:`method` on :attr:`backend`,
        exactly what :meth:`count` runs — through
        :meth:`repro.plan.Planner.predict` (the deterministic
        denominator of the delta-vs-rebuild cutover).  Returns the
        current count.  Tracking an already-tracked shape is a no-op
        read.
        """
        query = BicliqueQuery(p, q)
        shape = (query.p, query.q)
        with self._lock:
            if shape in self._counts and shape not in self._dirty:
                return self._counts[shape]
            if shape not in self._counts:
                self._counts[shape] = 0
                self._dirty.add(shape)
        value = self.count(p, q)
        with self._lock:
            if shape not in self._rebuild_seconds:
                self._rebuild_seconds[shape] = None
                price_needed = self._num_edges > 0
            else:
                price_needed = False
        if price_needed:
            session = self.pinned().session
            method, backend = self.method, self.backend
            if method == AUTO:
                plan = session.plan(query, backend=backend)
                method, backend = plan.method, plan.backend
            seconds = session._new_planner().predict(query, method,
                                                     backend=backend)
            with self._lock:
                self._rebuild_seconds[shape] = float(seconds) \
                    if seconds > 0.0 else None
        return value

    def untrack(self, p: int, q: int) -> None:
        shape = (int(p), int(q))
        with self._lock:
            self._counts.pop(shape, None)
            self._dirty.discard(shape)
            self._rebuild_seconds.pop(shape, None)
            if self._pinned is not None:  # so a re-track re-cleans it
                self._pinned._counts.pop(shape, None)

    # -- mutation -------------------------------------------------------
    def insert(self, u: int, v: int) -> int:
        """Insert edge (u, v); returns the new epoch."""
        return self._edit(u, v, True)

    def delete(self, u: int, v: int) -> int:
        """Delete edge (u, v); returns the new epoch."""
        return self._edit(u, v, False)

    def toggle(self, u: int, v: int) -> int:
        """Insert (u, v) if absent, delete it if present."""
        with self._lock:
            return self._edit(u, v, not self.has_edge(u, v))

    def apply(self, mutation: EdgeMutation) -> int:
        """Apply one :class:`EdgeMutation`; returns the new epoch."""
        if mutation.op == "insert":
            return self.insert(mutation.u, mutation.v)
        if mutation.op == "delete":
            return self.delete(mutation.u, mutation.v)
        return self.toggle(mutation.u, mutation.v)

    def apply_batch(self, mutations: Iterable[EdgeMutation]) -> int:
        """Apply a mutation stream in order; returns the final epoch.

        Edits are applied one by one under the writer lock; a
        validation error (out-of-range vertex, duplicate insert,
        missing delete) aborts the batch at the offending edit, with
        every preceding edit already applied and visible.
        """
        with self._lock:
            for m in mutations:
                self.apply(m)
            return self._epoch

    def _edit(self, u: int, v: int, inserting: bool) -> int:
        u, v = int(u), int(v)
        if not (0 <= u < self.num_u and 0 <= v < self.num_v):
            raise GraphValidationError(f"edge ({u},{v}) out of range for "
                                       f"{self.num_u}x{self.num_v}")
        with self._lock:
            row_u = self._rows_u[u]
            i = bisect_left(row_u, v)
            present = i < len(row_u) and row_u[i] == v
            if inserting and present:
                raise GraphValidationError(f"edge ({u},{v}) already present")
            if not inserting and not present:
                raise GraphValidationError(f"edge ({u},{v}) not present")

            # maintain tracked shapes before touching the structure: the
            # delta rule is invariant to whether (u, v) is in place, and
            # pre-update degrees price the edit identically both ways
            sign = 1 if inserting else -1
            work = delta_work_estimate(self._rows_u, self._rows_v, u, v)
            delta_price = work * self.seconds_per_work_unit
            for shape in sorted(self._counts):
                if shape in self._dirty:
                    continue
                budget = self._rebuild_seconds.get(shape)
                if (budget is not None
                        and delta_price > self.cutover_ratio * budget):
                    self._dirty.add(shape)
                    self.stats.cutover_deferrals += 1
                    continue
                delta = bicliques_containing_edge(
                    self._rows_u, self._rows_v, u, v, shape[0], shape[1])
                self._counts[shape] += sign * delta
                self.stats.delta_updates += 1

            # copy-on-write structural update: replace, never mutate,
            # the two affected rows — pinned snapshots keep the originals
            if inserting:
                self._rows_u[u] = row_u[:i] + [v] + row_u[i:]
                row_v = self._rows_v[v]
                j = bisect_left(row_v, u)
                self._rows_v[v] = row_v[:j] + [u] + row_v[j:]
                self._num_edges += 1
                self.stats.inserts += 1
            else:
                self._rows_u[u] = row_u[:i] + row_u[i + 1:]
                row_v = self._rows_v[v]
                j = bisect_left(row_v, u)
                self._rows_v[v] = row_v[:j] + row_v[j + 1:]
                self._num_edges -= 1
                self.stats.deletes += 1
            self._epoch += 1
            self._pinned = None
            return self._epoch

    # -- reading --------------------------------------------------------
    def count(self, p: int | BicliqueQuery, q: int | None = None, *,
              method: str | None = None, backend=None) -> int:
        """The exact (p, q)-biclique count at the current epoch.

        A tracked clean shape is the maintained integer (O(1)); a dirty
        or untracked shape is counted through an epoch-pinned
        snapshot's :meth:`SnapshotSession.count`, which re-cleans it.
        """
        if isinstance(p, BicliqueQuery):
            query = p
        elif q is None:
            raise QueryError("count() needs both p and q")
        else:
            query = BicliqueQuery(int(p), int(q))
        shape = (query.p, query.q)
        with self._lock:
            if shape in self._counts and shape not in self._dirty:
                return self._counts[shape]
            view = self._pin_locked()
        return int(view.count(query, method or self.method,
                              backend=backend or self.backend).count)

    def _reclean(self, view: SnapshotSession, shape: tuple[int, int],
                 value: int) -> None:
        """Re-clean a dirty ``shape`` with an exact count answered at
        ``view``'s epoch, unless a writer has moved past it."""
        with self._lock:
            if shape not in self._dirty or view.epoch != self._epoch:
                return
            self._counts[shape] = value
            self._dirty.discard(shape)
            self.stats.recounts += 1
            view._counts[shape] = value
            if self._pinned is not None:
                self._pinned._counts[shape] = value

    def pinned(self) -> SnapshotSession:
        """An immutable :class:`SnapshotSession` at the current epoch.

        Cached per epoch: consecutive pins between writes share one
        snapshot (and therefore one materialised inner session).
        """
        with self._lock:
            return self._pin_locked()

    def _pin_locked(self) -> SnapshotSession:
        if self._pinned is None or self._pinned.epoch != self._epoch:
            clean = {s: c for s, c in self._counts.items()
                     if s not in self._dirty}
            self._pinned = SnapshotSession(
                name=self.name, epoch=self._epoch,
                num_u=self.num_u, num_v=self.num_v,
                num_edges=self._num_edges,
                rows_u=list(self._rows_u), rows_v=list(self._rows_v),
                counts=clean, spec=self.spec,
                max_cached_results=self.max_cached_results,
                origin=self)
        return self._pinned

    def snapshot(self) -> BipartiteGraph:
        """The current adjacency as an immutable CSR graph."""
        return self.pinned().graph

    def as_graph_session(self) -> GraphSession:
        """A prepared session at the current epoch (duck-typing hook
        for :func:`repro.batch_count`)."""
        return self.pinned().session

    def recount(self, p: int, q: int, method: str | None = None,
                backend=None) -> int:
        """Independent from-scratch oracle: count (p, q) on a freshly
        materialised graph with no shared caches."""
        fresh = GraphSession(self.snapshot(), spec=self.spec)
        return int(fresh.count(BicliqueQuery(p, q), method or self.method,
                               backend=backend or self.backend,
                               use_cache=False).count)

    def drop_caches(self) -> bool:
        """Release the cached snapshot/prepared state (pool eviction).

        Counts, tracking, and the epoch survive — the next read pins a
        fresh snapshot and rebuilds prepared state on demand.  Returns
        True when a snapshot was actually resident.
        """
        with self._lock:
            had = self._pinned is not None
            self._pinned = None
            return had

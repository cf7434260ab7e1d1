"""A bounded, concurrent pool of prepared :class:`~repro.query.GraphSession`s.

A serving process answers queries over *many* named graphs, but prepared
state (wedge index, reorder permutations, HTBs, result cache) is per
graph and not free — an unbounded ``dict[name, GraphSession]`` is a
memory leak with a production traffic pattern.  :class:`SessionPool`
keeps at most ``max_sessions`` sessions (and, optionally, at most
``max_bytes`` of estimated graph-resident memory) alive at once,
evicting the least recently used when either budget is exceeded.

Graphs are registered as objects or as zero-argument **loaders**; a
loader lets an evicted graph's session be rebuilt transparently on its
next request, which is what makes eviction safe mid-flight: a request
holding an already-acquired session keeps a live object reference (the
pool forgetting it does not destroy it), and the next request simply
pays the rebuild.

Entries may also be **dynamic**: registering a
:class:`~repro.dynamic.DynamicGraphSession` makes the name mutable
through :meth:`SessionPool.mutate` while staying readable — each
:meth:`SessionPool.session` call returns an epoch-pinned
:class:`~repro.dynamic.SnapshotSession`, so an in-flight scheduler
batch keeps one consistent version while writers advance the epoch.
Evicting a dynamic entry drops its cached snapshot/prepared state; the
graph, its epoch and its tracked counts survive.

All pool operations are safe under concurrent access from scheduler
worker threads; :attr:`stats` counts hits, builds, evictions and
mutations so sizing decisions are observable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.dynamic import DynamicGraphSession
from repro.errors import ServiceError
from repro.graph.bipartite import BipartiteGraph
from repro.obs.log import get_logger
from repro.query import GraphSession

__all__ = ["SessionPool", "PoolStats", "graph_resident_bytes"]

log = get_logger(__name__)


def graph_resident_bytes(graph: BipartiteGraph) -> int:
    """Estimated resident size of one graph's CSR arrays, in bytes.

    Prepared session state (two-hop index, HTBs) scales with the same
    arrays, so this is the pool's unit of memory accounting — an
    estimate for budget enforcement, not an exact RSS measurement.
    """
    return int(sum(arr.nbytes for arr in (
        graph.u_offsets, graph.u_neighbors,
        graph.v_offsets, graph.v_neighbors)))


@dataclass
class PoolStats:
    """Observability counters for one :class:`SessionPool`."""

    hits: int = 0        #: session() served from a live session
    builds: int = 0      #: sessions constructed (first use or rebuild)
    evictions: int = 0   #: sessions dropped to satisfy a budget
    loads: int = 0       #: loader invocations (graph materialisations)
    mutations: int = 0   #: edge mutations applied to dynamic entries
    #: eviction count per graph name, for spotting thrash
    evicted_by_name: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"hits": self.hits, "builds": self.builds,
                "evictions": self.evictions, "loads": self.loads,
                "mutations": self.mutations,
                "evicted_by_name": dict(self.evicted_by_name)}


class SessionPool:
    """LRU-bounded map of graph name -> prepared :class:`GraphSession`.

    ``max_sessions`` bounds the entry count; ``max_bytes`` (optional)
    bounds the summed :func:`graph_resident_bytes` of pooled graphs.
    At least one session is always allowed to live, so a single graph
    larger than ``max_bytes`` still serves (with a warning-sized budget
    the pool degrades to rebuild-per-switch rather than failing).

    >>> from repro import random_bipartite
    >>> pool = SessionPool(max_sessions=1)
    >>> pool.register("a", random_bipartite(10, 10, 30, seed=1))
    >>> pool.register("b", lambda: random_bipartite(10, 10, 30, seed=2))
    >>> pool.session("a") is pool.session("a")   # cached
    True
    >>> _ = pool.session("b")                    # evicts "a"
    >>> pool.live_names()
    ['b']
    >>> pool.stats.evictions
    1
    """

    def __init__(self, max_sessions: int = 8,
                 max_bytes: int | None = None, *,
                 spec=None, max_cached_results: int = 256,
                 ledger=None) -> None:
        if max_sessions < 1:
            raise ServiceError(
                f"max_sessions must be >= 1, got {max_sessions}")
        if max_bytes is not None and max_bytes < 1:
            raise ServiceError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_sessions = int(max_sessions)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.spec = spec
        self.max_cached_results = int(max_cached_results)
        #: shared CostLedger handed to every pooled session, so one
        #: serving process accumulates measurements across graphs
        self.ledger = ledger
        self.stats = PoolStats()
        self._lock = threading.RLock()
        self._loaders: dict[str, object] = {}
        self._sessions: OrderedDict[str, GraphSession] = OrderedDict()
        self._bytes: dict[str, int] = {}
        self._closed = False

    # -- registration --------------------------------------------------
    def register(self, name: str, graph_or_loader) -> None:
        """Register ``name`` as a :class:`BipartiteGraph`, a
        zero-argument loader returning one, or a
        :class:`~repro.dynamic.DynamicGraphSession` (a *dynamic* entry:
        readable through epoch-pinned snapshots, writable through
        :meth:`mutate`).

        Registration is cheap: nothing is prepared until the first
        :meth:`session` call.  Re-registering a name drops its live
        session (the definition changed).
        """
        with self._lock:
            self._loaders[name] = graph_or_loader
            self._drop(name)

    def is_dynamic(self, name: str) -> bool:
        """Whether ``name`` is a mutable dynamic entry."""
        with self._lock:
            return isinstance(self._loaders.get(name), DynamicGraphSession)

    def dynamic_names(self) -> list[str]:
        """Every registered dynamic (mutable) graph name."""
        with self._lock:
            return sorted(n for n, ld in self._loaders.items()
                          if isinstance(ld, DynamicGraphSession))

    def names(self) -> list[str]:
        """Every registered graph name (live session or not)."""
        with self._lock:
            return sorted(self._loaders)

    def live_names(self) -> list[str]:
        """Names with a live pooled session, least recently used first."""
        with self._lock:
            return list(self._sessions)

    # -- the serving path ----------------------------------------------
    def session(self, name: str) -> GraphSession:
        """The prepared session for ``name``, building (or rebuilding
        after eviction) on demand and refreshing LRU recency.  A
        dynamic entry returns an epoch-pinned
        :class:`~repro.dynamic.SnapshotSession` instead (same ``count``
        / ``plan`` surface).

        Loaders run *outside* the pool lock — a slow disk load for one
        graph must not stall ``session()`` calls for every other graph —
        so on reacquire the pool re-checks for a session another thread
        built meanwhile (returned as a hit; this load is discarded) and
        for a re-registration mid-load (retried against the new
        definition).
        """
        while True:
            with self._lock:
                if self._closed:
                    raise ServiceError("session pool is closed")
                got = self._sessions.get(name)
                if got is not None:
                    self._sessions.move_to_end(name)
                    self.stats.hits += 1
                    return got
                loader = self._loaders.get(name)
                if loader is None:
                    raise ServiceError(
                        f"unknown graph {name!r}; registered: "
                        f"{self.names()}")
                if isinstance(loader, DynamicGraphSession):
                    # dynamic entries hand out epoch-pinned snapshots:
                    # the caller (one scheduler batch) reads a single
                    # consistent version no matter how writers race
                    self.stats.hits += 1
                    return loader.pinned()
                if isinstance(loader, BipartiteGraph):
                    graph = loader
                else:
                    graph = None
                    self.stats.loads += 1
            if graph is None:
                graph = loader()
                if not isinstance(graph, BipartiteGraph):
                    raise ServiceError(
                        f"loader for {name!r} returned "
                        f"{type(graph).__name__}, expected BipartiteGraph")
            with self._lock:
                if self._closed:
                    raise ServiceError("session pool is closed")
                if self._loaders.get(name) is not loader:
                    continue
                got = self._sessions.get(name)
                if got is not None:
                    self._sessions.move_to_end(name)
                    self.stats.hits += 1
                    return got
                session = GraphSession(
                    graph, spec=self.spec,
                    max_cached_results=self.max_cached_results,
                    ledger=self.ledger)
                self.stats.builds += 1
                if self.stats.evicted_by_name.get(name):
                    log.info("rebuilding %r after eviction "
                             "(evicted %d time(s) so far)", name,
                             self.stats.evicted_by_name[name])
                self._sessions[name] = session
                self._bytes[name] = graph_resident_bytes(graph)
                self._enforce_budgets(keep=name)
                return session

    def evict(self, name: str) -> bool:
        """Drop ``name``'s live session (its next request rebuilds).
        For a dynamic entry this releases its cached snapshot and
        prepared state; graph, epoch and tracked counts survive.
        Returns whether anything was actually dropped."""
        with self._lock:
            loader = self._loaders.get(name)
            if isinstance(loader, DynamicGraphSession):
                dropped = loader.drop_caches()
            else:
                dropped = self._drop(name)
            if dropped:
                self.stats.evictions += 1
                by = self.stats.evicted_by_name
                by[name] = by.get(name, 0) + 1
                log.info("evicted session %r (eviction #%d for this "
                         "name)", name, by[name])
            return dropped

    # -- the mutation path ---------------------------------------------
    def mutate(self, name: str, mutations) -> int:
        """Apply an edge-mutation batch to dynamic entry ``name``.

        ``mutations`` is an iterable of
        :class:`~repro.dynamic.EdgeMutation`.  Returns the entry's new
        epoch.  Snapshots already handed out keep serving their pinned
        version; the next :meth:`session` call pins the new one.
        Mutating a non-dynamic entry raises
        :class:`~repro.errors.ServiceError`.
        """
        mutations = list(mutations)
        with self._lock:
            if self._closed:
                raise ServiceError("session pool is closed")
            loader = self._loaders.get(name)
            if loader is None:
                raise ServiceError(f"unknown graph {name!r}; registered: "
                                   f"{self.names()}")
            if not isinstance(loader, DynamicGraphSession):
                raise ServiceError(
                    f"graph {name!r} is not dynamic; register a "
                    f"DynamicGraphSession to make it mutable")
        # apply outside the pool lock: the writer serialises on the
        # dynamic session's own lock, readers keep pinning freely
        epoch = loader.apply_batch(mutations)
        with self._lock:
            self.stats.mutations += len(mutations)
        return epoch

    def refresh(self, name: str) -> bool:
        """Re-validate ``name``'s live session against its graph's
        current content (the repair for a registered *static* graph
        object mutated in place — see ``GraphSession.refresh``).

        Returns True when stale prepared state was detected and
        dropped.  Dynamic entries are versioned, never stale, so this
        is always False for them; a name with no live session has
        nothing to refresh.
        """
        with self._lock:
            loader = self._loaders.get(name)
            if loader is None:
                raise ServiceError(f"unknown graph {name!r}; registered: "
                                   f"{self.names()}")
            if isinstance(loader, DynamicGraphSession):
                return False
            session = self._sessions.get(name)
        return session.refresh() if session is not None else False

    def resident_bytes(self) -> int:
        """Summed size estimate of all live pooled graphs."""
        with self._lock:
            return sum(self._bytes.values())

    def close(self) -> None:
        """Drop every session and refuse further :meth:`session` calls."""
        with self._lock:
            self._closed = True
            self._sessions.clear()
            self._bytes.clear()
            for loader in self._loaders.values():
                if isinstance(loader, DynamicGraphSession):
                    loader.drop_caches()

    def snapshot(self) -> dict:
        """JSON-serialisable pool state for telemetry artifacts."""
        with self._lock:
            dynamic = {n: ld.epoch for n, ld in self._loaders.items()
                       if isinstance(ld, DynamicGraphSession)}
            return {"max_sessions": self.max_sessions,
                    "max_bytes": self.max_bytes,
                    "registered": len(self._loaders),
                    "live": list(self._sessions),
                    "dynamic_epochs": dynamic,
                    "resident_bytes": sum(self._bytes.values()),
                    **self.stats.as_dict()}

    # -- internals (call with the lock held) ---------------------------
    def _drop(self, name: str) -> bool:
        self._bytes.pop(name, None)
        return self._sessions.pop(name, None) is not None

    def _enforce_budgets(self, keep: str) -> None:
        # never evict `keep` (the session being handed out right now)
        def evictable() -> str | None:
            for name in self._sessions:      # LRU order
                if name != keep:
                    return name
            return None

        while len(self._sessions) > self.max_sessions:
            victim = evictable()
            if victim is None:
                break
            self.evict(victim)
        if self.max_bytes is None:
            return
        while sum(self._bytes.values()) > self.max_bytes \
                and len(self._sessions) > 1:
            victim = evictable()
            if victim is None:
                break
            self.evict(victim)

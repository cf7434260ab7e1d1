"""The kernel-backend protocol: one intersection API, many engines.

Every algorithm in :mod:`repro.core` (and the HTB path in
:mod:`repro.htb`) expresses its work in terms of four kernel primitives —
CPU sorted-merge, device lock-step binary search, membership probing, and
truncated-bitmap intersection — plus a handful of accounting hooks
(coalesced streams, gathers, warp-slot occupancy, shared-memory peaks).
A :class:`KernelBackend` supplies all of them, so the *definition* of a
search (which sets intersect, in which order) is separated from its
*execution* (instrumented simulation vs raw speed):

* :class:`repro.engine.simulated.SimulatedDeviceBackend` — the paper's
  measurement engine.  Bit-for-bit identical transaction/comparison/slot
  accounting to the original hard-wired call sites; powers every figure
  and table that plots device metrics.
* :class:`repro.engine.fast.FastBackend` — pure vectorised NumPy with all
  timing, comparison counting and transaction charging compiled out; the
  per-root recursion without the measurement tax.
* :class:`repro.engine.native.NativeBackend` — the batch-kernel engine:
  every intersection of a search level executes as one vectorised
  kernel over the flat CSR/HTB arrays; with ``workers=N`` it forks its
  root loop over N LPT root shards.

Beyond the four scalar primitives the protocol carries two families of
batch entry points.  The per-node ones (``intersect_many``/
``intersect_sizes``, ``bitmap_intersect_many``/
``bitmap_intersect_counts``) serve the per-root recursion of GBL and
GBC; they loop the scalar kernels with exactly the per-call arguments
the counters used to pass, so ``sim`` and ``fast`` account
bit-identically to the pre-batch call sites.  The pairwise ones
(``intersect_pairs``/``intersect_pairs_sizes``, ``bitmap_pairs``/
``bitmap_pairs_counts``) serve the hybrid DFS-BFS frontier
traversal; a backend that can amortise per-call dispatch (``native``)
overrides them.

Every counter runs its root loop through one call,
:meth:`KernelBackend.map_shards`: all roots as one in-process shard by
default, one LPT shard per forked child on ``native`` with ``workers=N``
— no counter forks into a serial and a sharded path.

Algorithms accept ``backend=`` as an instance, a registry name (``"sim"``
/ ``"fast"`` / ``"native"``), or ``None``, which is
:data:`DEFAULT_BACKEND` (``native``) at every entry point.
:func:`resolve_backend` makes that choice, and makes it alone;
``workers=`` forks ``native``'s root loop over that many children.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.errors import QueryError
from repro.gpu.metrics import KernelMetrics
from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpu.device import DeviceSpec
    from repro.htb.htb import BitmapSet

__all__ = ["KernelBackend", "BACKEND_NAMES", "DEFAULT_BACKEND",
           "resolve_backend"]

BACKEND_NAMES = ("sim", "fast", "native")
#: the engine every entry point runs when no ``backend=`` is named
DEFAULT_BACKEND = "native"
#: engine name -> class; each engine module (they import this one) adds
#: its own as it is imported, so choosing an engine imports nothing
ENGINES: dict[str, type["KernelBackend"]] = {}


class KernelBackend(ABC):
    """Pluggable execution engine behind every set intersection.

    The four abstract methods are the kernel primitives; the concrete
    hooks below them are the instrumentation sink, which the fast backend
    leaves as no-ops so uninstrumented runs pay nothing for accounting.
    """

    #: registry name of the backend ("sim", "fast", ...)
    name: str = "abstract"
    #: whether timers and device metrics collected through this backend
    #: are live (False means every sink hook is a no-op)
    instrumented: bool = False

    # -- root-set execution --------------------------------------------
    def map_shards(self, fn: Callable[[Sequence[int]], Any],
                   num_items: int,
                   weights: np.ndarray | None = None
                   ) -> list[tuple[Sequence[int], Any]]:
        """Run ``fn(item_indices)`` over shards of ``range(num_items)``.

        Returns ``[(item_indices, result), ...]`` in shard order.  Every
        counter runs its root loop through this one call.  A
        serial engine runs all items as one in-process shard and ignores
        ``weights``; :class:`repro.engine.native.NativeBackend` with
        ``workers=N`` overrides it with one LPT shard per forked child.
        """
        items = range(num_items)
        return [(items, fn(items))] if num_items > 0 else []

    # -- kernel primitives ---------------------------------------------
    @abstractmethod
    def merge(self, a: np.ndarray, b: np.ndarray,
              comparisons: list[int] | None = None) -> np.ndarray:
        """Sorted-merge intersection (the CPU path of Basic/BCL).

        ``comparisons`` is a single-cell list accumulating the merge's
        element-comparison count for the Fig. 1(b) breakdown; backends
        without instrumentation ignore it.
        """

    @abstractmethod
    def intersect(self, keys: np.ndarray, lst: np.ndarray,
                  metrics: KernelMetrics, *,
                  warps: int = 1, base_word: int = 0,
                  record_slots: bool = True) -> np.ndarray:
        """Intersect sorted ``keys`` with sorted ``lst`` (device CSR path).

        Returns the sorted intersection.  The simulated engine charges
        transactions/comparisons/slots into ``metrics``; fast engines
        leave ``metrics`` untouched.
        """

    @abstractmethod
    def membership(self, keys: np.ndarray, lst: np.ndarray) -> np.ndarray:
        """Boolean mask of which sorted ``keys`` appear in sorted ``lst``."""

    @abstractmethod
    def bitmap_intersect(self, keys: "BitmapSet", lst: "BitmapSet",
                         metrics: KernelMetrics, *,
                         warps: int = 1, base_word: int = 0,
                         keys_in_shared: bool = True,
                         record_slots: bool = True) -> "BitmapSet":
        """Intersect two truncated bitmaps (the HTB path, Example 7)."""

    # -- per-node batch entry points -----------------------------------
    # One call per recursion node's frontier instead of one call per
    # candidate.  They loop the scalar primitives with exactly the
    # arguments the historical per-candidate call sites passed (same
    # base_word, same flag plumbing, same call count), so the simulated
    # engine's accounting is bit-identical whether a counter batches or
    # not.

    def intersect_many(self, keys: np.ndarray, offsets: np.ndarray,
                       values: np.ndarray, rows: np.ndarray,
                       metrics: KernelMetrics, *,
                       warps: int = 1,
                       record_slots: bool = True) -> list[np.ndarray]:
        """:meth:`intersect` of ``keys`` against many CSR rows.

        ``values[offsets[r]:offsets[r+1]]`` is row ``r``'s sorted list;
        each row's ``base_word`` is its flat offset, matching what the
        per-candidate call sites always passed.
        """
        if _trace.enabled:
            _trace.tally_kernel("intersect_many", items=len(rows))
        out = []
        for r in rows:
            r = int(r)
            lo = int(offsets[r])
            out.append(self.intersect(
                keys, values[lo:int(offsets[r + 1])], metrics,
                warps=warps, base_word=lo, record_slots=record_slots))
        return out

    def intersect_sizes(self, keys: np.ndarray, offsets: np.ndarray,
                        values: np.ndarray, rows: np.ndarray,
                        metrics: KernelMetrics, *,
                        warps: int = 1,
                        record_slots: bool = True) -> np.ndarray:
        """``len(intersect(keys, row))`` per row — the search-leaf kernel,
        where only intersection *sizes* feed the binomial sum."""
        return np.asarray(
            [len(got) for got in self.intersect_many(
                keys, offsets, values, rows, metrics,
                warps=warps, record_slots=record_slots)],
            dtype=np.int64)

    def bitmap_intersect_many(self, keys: "BitmapSet", htb, rows,
                              metrics: KernelMetrics, *,
                              warps: int = 1,
                              keys_in_shared: bool = True,
                              record_slots: bool = True
                              ) -> "list[BitmapSet]":
        """:meth:`bitmap_intersect` of ``keys`` against many HTB rows
        (``htb`` is a :class:`repro.htb.htb.HTB`)."""
        if _trace.enabled:
            _trace.tally_kernel("bitmap_intersect_many", items=len(rows))
        out = []
        for r in rows:
            r = int(r)
            out.append(self.bitmap_intersect(
                keys, htb.view(r), metrics, warps=warps,
                base_word=htb.base_word(r),
                keys_in_shared=keys_in_shared, record_slots=record_slots))
        return out

    def bitmap_intersect_counts(self, keys: "BitmapSet", htb, rows,
                                metrics: KernelMetrics, *,
                                warps: int = 1,
                                keys_in_shared: bool = True,
                                record_slots: bool = True) -> np.ndarray:
        """Popcount of ``keys & htb[r]`` per row (the HTB leaf kernel)."""
        return np.asarray(
            [got.count() for got in self.bitmap_intersect_many(
                keys, htb, rows, metrics, warps=warps,
                keys_in_shared=keys_in_shared, record_slots=record_slots)],
            dtype=np.int64)

    # -- pairwise batch entry points -----------------------------------
    # One call per *search level*: every pair couples one ragged key row
    # (a live task's CL/CR set, delimited by ``a_off``) with one CSR or
    # HTB row.  The frontier traversal (:mod:`repro.core.frontier`)
    # drives engines that set ``frontier = True`` through these; the
    # defaults loop the scalar primitives so any engine answers them.

    #: whether the counting drivers should run the hybrid DFS-BFS
    #: frontier traversal on this engine instead of the per-root
    #: recursion (counts are identical either way)
    frontier: bool = False

    def intersect_pairs(self, a_off: np.ndarray, a_val: np.ndarray,
                        a_ids: np.ndarray, offsets: np.ndarray,
                        values: np.ndarray, rows: np.ndarray,
                        metrics: KernelMetrics, *,
                        warps: int = 1, record_slots: bool = True
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Pair ``i``: intersect ragged row ``a_ids[i]`` of ``(a_off,
        a_val)`` with CSR row ``rows[i]``.  Returns the results as one
        ragged ``(out_off, out_val)`` pair."""
        if _trace.enabled:
            _trace.tally_kernel("intersect_pairs", items=len(rows))
        outs = []
        for a_id, r in zip(a_ids, rows):
            lo = int(offsets[int(r)])
            outs.append(self.intersect(
                a_val[int(a_off[int(a_id)]):int(a_off[int(a_id) + 1])],
                values[lo:int(offsets[int(r) + 1])], metrics,
                warps=warps, base_word=lo, record_slots=record_slots))
        lens = np.asarray([len(got) for got in outs], dtype=np.int64)
        off = np.zeros(len(outs) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        flat = (np.concatenate(outs) if outs and int(off[-1])
                else np.empty(0, dtype=np.int64))
        return off, flat

    def intersect_pairs_sizes(self, a_off: np.ndarray, a_val: np.ndarray,
                              a_ids: np.ndarray, offsets: np.ndarray,
                              values: np.ndarray, rows: np.ndarray,
                              metrics: KernelMetrics, *,
                              warps: int = 1,
                              record_slots: bool = True) -> np.ndarray:
        """Size of each pair's intersection — the frontier leaf kernel."""
        off, _ = self.intersect_pairs(a_off, a_val, a_ids, offsets,
                                      values, rows, metrics, warps=warps,
                                      record_slots=record_slots)
        return np.diff(off)

    def bitmap_pairs(self, a_off: np.ndarray, a_idx: np.ndarray,
                     a_val: np.ndarray, a_ids: np.ndarray, htb,
                     rows: np.ndarray, metrics: KernelMetrics, *,
                     warps: int = 1, keys_in_shared: bool = True,
                     record_slots: bool = True):
        """Pair ``i``: AND ragged truncated bitmap ``a_ids[i]`` of
        ``(a_off, a_idx, a_val)`` with HTB row ``rows[i]``.  Returns
        ``(out_off, out_idx, out_val, counts)`` — the result bitmaps as
        one ragged word array plus each pair's popcount."""
        from repro.htb.htb import BitmapSet

        if _trace.enabled:
            _trace.tally_kernel("bitmap_pairs", items=len(rows))

        idx_parts, val_parts, lens, counts = [], [], [], []
        for a_id, r in zip(a_ids, rows):
            lo, hi = int(a_off[int(a_id)]), int(a_off[int(a_id) + 1])
            got = self.bitmap_intersect(
                BitmapSet(a_idx[lo:hi], a_val[lo:hi]),
                htb.view(int(r)), metrics, warps=warps,
                base_word=htb.base_word(int(r)),
                keys_in_shared=keys_in_shared, record_slots=record_slots)
            idx_parts.append(got.idx)
            val_parts.append(got.val)
            lens.append(len(got.idx))
            counts.append(got.count())
        off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(np.asarray(lens, dtype=np.int64), out=off[1:])
        if idx_parts and int(off[-1]):
            flat_idx = np.concatenate(idx_parts)
            flat_val = np.concatenate(val_parts)
        else:
            flat_idx = np.empty(0, dtype=np.int64)
            flat_val = np.empty(0, dtype=np.uint64)
        return off, flat_idx, flat_val, np.asarray(counts, dtype=np.int64)

    def bitmap_pairs_counts(self, a_off: np.ndarray, a_idx: np.ndarray,
                            a_val: np.ndarray, a_ids: np.ndarray, htb,
                            rows: np.ndarray, metrics: KernelMetrics, *,
                            warps: int = 1, keys_in_shared: bool = True,
                            record_slots: bool = True) -> np.ndarray:
        """Popcount of each pair's AND — the frontier HTB leaf kernel."""
        return self.bitmap_pairs(a_off, a_idx, a_val, a_ids, htb, rows,
                                 metrics, warps=warps,
                                 keys_in_shared=keys_in_shared,
                                 record_slots=record_slots)[3]

    # -- instrumentation sink ------------------------------------------
    def new_metrics(self) -> KernelMetrics:
        """A fresh per-kernel metrics accumulator."""
        return KernelMetrics()

    def charge_stream(self, metrics: KernelMetrics, num_words: int) -> None:
        """Account a coalesced sequential read/write of ``num_words``."""

    def record_work(self, metrics: KernelMetrics, work_items: int,
                    warps: int) -> None:
        """Account warp-slot occupancy for ``work_items`` lanes of work."""

    def note_shared_peak(self, metrics: KernelMetrics,
                         nbytes: int) -> None:
        """Track the largest shared-memory footprint seen."""


def resolve_backend(backend: "KernelBackend | str | None" = None,
                    spec: "DeviceSpec | None" = None,
                    workers: int | None = None) -> KernelBackend:
    """The engine ``backend=``/``workers=`` select: the one place an
    engine is chosen.

    ``None`` is :data:`DEFAULT_BACKEND`; a registry name builds that
    engine (``spec`` configures ``sim``); an instance passes through,
    its own device spec winning over ``spec``.  A caller that needs
    only the engine's name takes ``.name``.

    A non-``None`` ``workers`` forks the root loop, which only
    ``native`` does: a native instance already configured with that
    count passes through, and any other engine (name or instance)
    raises :class:`~repro.errors.QueryError` — ``sim``'s accounting is
    defined serially, and ``fast`` is the one-process recursion
    ``native`` is measured against.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    instance = isinstance(backend, KernelBackend)
    if not instance and backend not in BACKEND_NAMES:
        raise QueryError(f"backend must be a KernelBackend, a name in "
                         f"{BACKEND_NAMES}, or None; got {backend!r}")
    name = backend.name if instance else backend
    if workers is not None and name != "native":
        raise QueryError(
            f"workers={workers!r} forks the 'native' frontier; {name!r} "
            f"counts in one process")
    if instance and (workers is None
                     or getattr(backend, "workers", None) == int(workers)):
        return backend
    if name == "sim":
        return ENGINES["sim"](spec)
    if name == "fast":
        return ENGINES["fast"]()
    return ENGINES["native"](workers)

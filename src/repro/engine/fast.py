"""The uninstrumented execution engine: pure vectorised NumPy.

Produces exactly the same intersection *results* as the simulated device
backend — the equivalence tests assert this per primitive and end-to-end
across all five algorithms — but with every piece of instrumentation
compiled out: no ``perf_counter`` calls, no comparison cells, no
transaction charging, no warp-slot bookkeeping.  On medium graphs this is
several times faster than the simulated engine, which is the point:
experiments that only need counts (or host wall-clock) should not pay the
measurement tax.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import ENGINES, KernelBackend
from repro.gpu.metrics import KernelMetrics
from repro.htb.htb import BitmapSet

__all__ = ["FastBackend"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_SET = BitmapSet(_EMPTY_I64, _EMPTY_U64)


class FastBackend(KernelBackend):
    """Instrumentation-free kernels built on sorted searchsorted probes."""

    name = "fast"
    instrumented = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "FastBackend()"

    # -- kernel primitives ---------------------------------------------
    def merge(self, a: np.ndarray, b: np.ndarray,
              comparisons: list[int] | None = None) -> np.ndarray:
        # probe the shorter sorted array into the longer one: O(m log n)
        # with small constant, beating intersect1d's concatenate-and-sort
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 0 or len(b) == 0:
            return _EMPTY_I64
        pos = b.searchsorted(a)
        pos[pos == len(b)] = 0  # out-of-range probes can never match
        return a[b[pos] == a]

    def intersect(self, keys: np.ndarray, lst: np.ndarray,
                  metrics: KernelMetrics, *,
                  warps: int = 1, base_word: int = 0,
                  record_slots: bool = True) -> np.ndarray:
        return self.merge(keys, lst)

    def membership(self, keys: np.ndarray, lst: np.ndarray) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        if len(lst) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = lst.searchsorted(keys)
        pos[pos == len(lst)] = 0
        return lst[pos] == keys

    def bitmap_intersect(self, keys, lst, metrics: KernelMetrics, *,
                         warps: int = 1, base_word: int = 0,
                         keys_in_shared: bool = True,
                         record_slots: bool = True):
        a_idx, a_val = keys.idx, keys.val
        b_idx, b_val = lst.idx, lst.val
        if len(a_idx) > len(b_idx):  # intersection is commutative
            a_idx, a_val, b_idx, b_val = b_idx, b_val, a_idx, a_val
        n_a, n_b = len(a_idx), len(b_idx)
        if n_a == 0:
            return _EMPTY_SET
        if n_a == 1:
            # the common deep-recursion shape: one stored word, so a
            # scalar probe avoids ~10 tiny-array numpy dispatches
            word = int(a_idx[0])
            pos = int(b_idx.searchsorted(word))
            if pos == n_b or int(b_idx[pos]) != word:
                return _EMPTY_SET
            mask = int(a_val[0]) & int(b_val[pos])
            if mask == 0:
                return _EMPTY_SET
            out = BitmapSet(a_idx, np.asarray([mask], dtype=np.uint64))
            out.__dict__["_count"] = mask.bit_count()  # popcount for free
            return out
        pos = b_idx.searchsorted(a_idx)
        pos[pos == n_b] = 0
        ok = b_idx[pos] == a_idx
        masks = a_val[ok] & b_val[pos[ok]]
        keep = masks != 0
        return BitmapSet(a_idx[ok][keep], masks[keep])


ENGINES[FastBackend.name] = FastBackend

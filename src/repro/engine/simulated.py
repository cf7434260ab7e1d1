"""The instrumented execution engine: today's simulated RTX 3090.

Wraps the accounting-heavy primitives that every figure of the paper is
measured with — :func:`repro.gpu.intersect.binary_search_intersect`,
:func:`repro.gpu.intersect.merge_intersect` and the HTB
:func:`repro.htb.htb.intersect_device` — behind the
:class:`~repro.engine.base.KernelBackend` protocol.  The wrapping is
pass-through: transaction, comparison and slot counts are bit-for-bit
identical to calling the primitives directly, which the backend
equivalence tests pin down.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import ENGINES, KernelBackend
from repro.gpu.device import DeviceSpec, rtx_3090
from repro.gpu.intersect import (
    binary_search_intersect,
    membership_mask,
    merge_intersect,
)
from repro.gpu.memory import charge_stream
from repro.gpu.metrics import KernelMetrics
from repro.gpu.simt import record_work
from repro.htb.htb import intersect_device

__all__ = ["SimulatedDeviceBackend"]


class SimulatedDeviceBackend(KernelBackend):
    """Fully instrumented kernels on the simulated CUDA-like device."""

    name = "sim"
    instrumented = True

    def __init__(self, spec: DeviceSpec | None = None) -> None:
        self.spec = spec or rtx_3090()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedDeviceBackend(spec={self.spec.name!r})"

    # -- kernel primitives ---------------------------------------------
    def merge(self, a: np.ndarray, b: np.ndarray,
              comparisons: list[int] | None = None) -> np.ndarray:
        return merge_intersect(a, b, comparisons)

    def intersect(self, keys: np.ndarray, lst: np.ndarray,
                  metrics: KernelMetrics, *,
                  warps: int = 1, base_word: int = 0,
                  record_slots: bool = True) -> np.ndarray:
        return binary_search_intersect(keys, lst, self.spec, metrics,
                                       warps=warps, base_word=base_word,
                                       record_slots=record_slots)

    def membership(self, keys: np.ndarray, lst: np.ndarray) -> np.ndarray:
        return membership_mask(keys, lst)

    def bitmap_intersect(self, keys, lst, metrics: KernelMetrics, *,
                         warps: int = 1, base_word: int = 0,
                         keys_in_shared: bool = True,
                         record_slots: bool = True):
        return intersect_device(keys, lst, self.spec, metrics,
                                warps=warps, base_word=base_word,
                                keys_in_shared=keys_in_shared,
                                record_slots=record_slots)

    # -- instrumentation sink ------------------------------------------
    def charge_stream(self, metrics: KernelMetrics, num_words: int) -> None:
        charge_stream(metrics, self.spec, num_words)

    def record_work(self, metrics: KernelMetrics, work_items: int,
                    warps: int) -> None:
        record_work(metrics, self.spec, work_items, warps)

    def note_shared_peak(self, metrics: KernelMetrics, nbytes: int) -> None:
        metrics.note_shared_peak(nbytes)


ENGINES[SimulatedDeviceBackend.name] = SimulatedDeviceBackend

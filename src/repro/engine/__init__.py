"""Unified kernel-backend layer: pluggable execution engines.

Planning/definition (which sets intersect, in which order) lives in
:mod:`repro.core`; measured execution lives here.  Three engines ship:

* ``"sim"`` — :class:`SimulatedDeviceBackend`, the instrumented simulated
  GPU every paper figure is measured with;
* ``"fast"`` — :class:`FastBackend`, raw vectorised NumPy with all
  instrumentation compiled out;
* ``"native"`` — :class:`~repro.engine.native.NativeBackend`, the
  batch-kernel engine: every intersection of a search level per
  vectorised kernel call, counts bit-identical to ``fast``.  With
  ``workers=N`` it forks its root loop over N LPT root shards (counts
  identical for any worker count).  It is also where ``method="auto"``
  runs when no engine is named: GBC, by rule
  (:mod:`repro.plan.planner`).

Select one via the ``backend=`` argument of any counting entry point, the
``--backend``/``--workers`` CLI flags, or construct an engine directly:

>>> from repro.engine import BACKEND_NAMES, FastBackend, resolve_backend
>>> BACKEND_NAMES
('sim', 'fast', 'native')
>>> resolve_backend(None).name          # the historical default
'sim'
>>> resolve_backend("fast").instrumented
False
>>> engine = resolve_backend(None, workers=2)  # workers= implies "native"
>>> engine.name, engine.workers
('native', 2)
>>> resolve_backend(FastBackend()).name    # instances pass through
'fast'
"""

from repro.engine.base import (
    BACKEND_NAMES,
    KernelBackend,
    get_backend,
    resolve_backend,
)
from repro.engine.fast import FastBackend
from repro.engine.native import NativeBackend
from repro.engine.simulated import SimulatedDeviceBackend

__all__ = [
    "KernelBackend", "SimulatedDeviceBackend", "FastBackend",
    "NativeBackend", "BACKEND_NAMES", "get_backend", "resolve_backend",
]

"""Unified kernel-backend layer: pluggable execution engines.

Planning/definition (which sets intersect, in which order) lives in
:mod:`repro.core`; measured execution lives here.  Four engines ship:

* ``"sim"`` — :class:`SimulatedDeviceBackend`, the instrumented simulated
  GPU every paper figure is measured with;
* ``"fast"`` — :class:`FastBackend`, raw vectorised NumPy with all
  instrumentation compiled out;
* ``"par"`` — :class:`ParallelBackend`, the fast kernels sharded over
  forked worker processes with deterministic merging (counts identical
  to a serial fast run for any worker count);
* ``"native"`` — :class:`~repro.engine.native.NativeBackend`, the
  batch-kernel engine: every intersection of a search level per
  vectorised kernel call, counts bit-identical to ``fast``.

Select one via the ``backend=`` argument of any counting entry point, the
``--backend``/``--workers`` CLI flags, or construct an engine directly:

>>> from repro.engine import BACKEND_NAMES, FastBackend, resolve_backend
>>> BACKEND_NAMES
('sim', 'fast', 'par', 'native')
>>> resolve_backend(None).name          # the historical default
'sim'
>>> resolve_backend("fast").instrumented
False
>>> resolve_backend(None, workers=2).name  # workers= implies "par"
'par'
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
from repro.engine.parallel import ParallelBackend
from repro.engine.simulated import SimulatedDeviceBackend

__all__ = [
    "KernelBackend", "SimulatedDeviceBackend", "FastBackend",
    "ParallelBackend", "NativeBackend", "BACKEND_NAMES", "get_backend",
    "resolve_backend",
]


def __getattr__(name: str):
    # NativeBackend imports lazily: repro.engine.native registers its
    # cost model with repro.plan at import time, and loading that chain
    # from this package-level __init__ would be circular
    if name == "NativeBackend":
        from repro.engine.native import NativeBackend

        return NativeBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

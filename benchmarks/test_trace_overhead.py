"""Disabled tracing costs one flag check per instrumented seam.

Every counting, planning and serving path runs through
:func:`repro.obs.trace.span` and :func:`repro.obs.trace.tally_kernel`;
with tracing off (the default) they must stay free.  Runs in the slow
benchmark suite (``pytest -m "" benchmarks``).
"""

from __future__ import annotations

from repro.obs.trace import span, tally_kernel, tracing_enabled


def test_disabled_tracing_overhead_is_negligible():
    """The instrumented seams cost one flag check when tracing is off.

    This pins the per-call price of a disabled span + kernel tally
    directly.  5µs/iteration is ~25x the measured cost on a 2020s
    laptop and far below 2% of even the smallest kernel batch, so the
    bound fails only if someone puts real work on the disabled path.
    """
    import time

    assert not tracing_enabled()
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        with span("bench.noop", detail=1):
            tally_kernel("noop", items=4)
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 5e-6, f"disabled span+tally cost {per_call * 1e6:.2f}µs"

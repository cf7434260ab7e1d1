"""Cross-process telemetry aggregation and worker-tagged tracing.

``merge_snapshots`` must behave like one long-running Telemetry fed the
combined event stream: exact on undecimated inputs (percentiles are
recomputed from the union of raw samples, never averaged), and within
decimation tolerance once streams have been thinned.  Trace events from
an ident-carrying scheduler must say which worker emitted them.
"""

import pytest

from repro.core.gbc import gbc_count  # noqa: F401 - keeps import graph warm
from repro.graph.generators import random_bipartite
from repro.obs.trace import tracing
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler
from repro.service.telemetry import Telemetry, merge_snapshots, percentile


def _fill(t: Telemetry, latencies_ms, *, submitted=0, rejected=0,
          expired=0, failed=0) -> None:
    for _ in range(submitted):
        t.record_submit(queue_depth=1)
    for _ in range(rejected):
        t.record_rejected()
    t.record_expired(expired)
    for _ in range(failed):
        t.record_failed()
    if latencies_ms:
        t.record_batch(len(latencies_ms))
    for ms in latencies_ms:
        t.record_completed(ms / 1e3)


def test_merge_equals_single_combined_stream_exactly():
    streams = [
        [5.0, 7.0, 11.0, 13.0, 42.0],
        [1.0, 2.0, 3.0],
        [100.0, 200.0, 8.0, 9.0, 10.0, 11.0],
    ]
    workers = []
    for i, stream in enumerate(streams):
        t = Telemetry()
        _fill(t, stream, submitted=len(stream) + i, rejected=i,
              expired=i, failed=1)
        workers.append(t)
    combined = Telemetry()
    _fill(combined, [ms for s in streams for ms in s],
          submitted=sum(len(s) + i for i, s in enumerate(streams)),
          rejected=sum(range(len(streams))),
          expired=sum(range(len(streams))), failed=len(streams))

    merged = merge_snapshots([t.snapshot(include_samples=True)
                              for t in workers])
    ref = combined.snapshot()

    assert merged["workers"] == 3
    for key in ("submitted", "rejected", "expired", "completed",
                "failed"):
        assert merged[key] == ref[key], key
    # percentiles recomputed from the union of raw samples — exact
    for pct in ("p50", "p90", "p95", "p99", "max", "min"):
        assert merged["latency_ms"][pct] == ref["latency_ms"][pct], pct
    assert merged["latency_ms"]["mean"] == \
        pytest.approx(ref["latency_ms"]["mean"])
    # one batch per worker stream merges into the union histogram
    assert merged["batches"]["count"] == len(streams)
    assert merged["batches"]["histogram"] == \
        {str(len(s)): 1 for s in streams}


def test_merge_qps_uses_longest_elapsed_not_sum():
    snaps = []
    for completed, elapsed in [(60, 2.0), (40, 4.0)]:
        t = Telemetry()
        _fill(t, [1.0] * completed)
        snap = t.snapshot(include_samples=True)
        snap["elapsed_seconds"] = elapsed      # pin wall time
        snaps.append(snap)
    merged = merge_snapshots(snaps)
    assert merged["completed"] == 100
    assert merged["throughput_qps"] == pytest.approx(100 / 4.0)


def test_merge_within_decimation_tolerance():
    """Decimated streams merge to percentiles near the true stream's."""
    latencies = [float(((7 * i) % 100) + 1) for i in range(4000)]
    half = len(latencies) // 2
    workers = []
    for chunk in (latencies[:half], latencies[half:]):
        t = Telemetry(max_latency_samples=256)     # forces decimation
        _fill(t, chunk)
        workers.append(t)
    merged = merge_snapshots([t.snapshot(include_samples=True)
                              for t in workers])
    assert merged["latency_ms"]["stride"] > 1      # decimation happened
    for pct in (50, 90, 95):
        true = percentile(latencies, pct)
        got = merged["latency_ms"][f"p{pct}"]
        assert got == pytest.approx(true, rel=0.15), pct
    assert merged["completed"] == len(latencies)


def test_merge_of_nothing_is_empty():
    merged = merge_snapshots([])
    assert merged["workers"] == 0
    assert merged["completed"] == 0
    assert merged["throughput_qps"] == 0.0
    assert merged["latency_ms"]["p95"] == 0.0


def test_serve_events_carry_worker_ident():
    pool = SessionPool()
    pool.register("g", random_bipartite(30, 25, 140, seed=4))
    with tracing() as rec:
        with Scheduler(pool, backend="fast", ident="w7") as sched:
            sched.count("g", 2, 2)
    tagged = [r for r in rec.records
              if str(r.get("name", "")).startswith("serve.")]
    assert tagged, "no serve.* records captured"
    assert all(r["attrs"].get("worker") == "w7" for r in tagged)


def test_router_events_tagged_router_in_fallback_mode():
    from repro.dist.router import DistRouter

    g = random_bipartite(30, 25, 140, seed=4)
    with tracing() as rec:
        with DistRouter({"g": g}, workers=1, backend="fast") as router:
            router.count("g", 2, 2)
    tagged = [r for r in rec.records
              if str(r.get("name", "")).startswith("serve.")]
    assert tagged
    assert all(r["attrs"].get("worker") == "router" for r in tagged)

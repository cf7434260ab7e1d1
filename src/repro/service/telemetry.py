"""Serving telemetry: throughput, queue depth, batch sizes, latency.

One :class:`Telemetry` instance rides along with a
:class:`~repro.service.scheduler.Scheduler` and records every event the
serving path emits — request admitted / rejected / expired / completed /
failed, batch executed, queue depth observed.  Everything is guarded by
one lock (events arrive from every client and worker thread at once) and
exposed as a JSON-serialisable :meth:`snapshot`, which is what the
repository benchmark's serve-mixed workload reports per layer.

Latencies are kept as raw samples up to ``max_latency_samples`` and
summarised into percentiles at snapshot time; past the cap a simple
deterministic decimation keeps every ``k``-th sample so long runs stay
bounded without a dependency on reservoir randomness.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter

__all__ = ["Telemetry", "merge_snapshots", "percentile"]


def percentile(samples: list[float], pct: float) -> float:
    """The ``pct``-th percentile of ``samples`` (nearest-rank).

    >>> percentile([4.0, 1.0, 3.0, 2.0], 50)
    2.0
    >>> percentile([4.0, 1.0, 3.0, 2.0], 100)
    4.0
    >>> percentile([1.0, 3.0], 50)
    1.0
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(pct / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class Telemetry:
    """Thread-safe event counters and distributions for one scheduler."""

    def __init__(self, max_latency_samples: int = 100_000) -> None:
        self.max_latency_samples = int(max_latency_samples)
        self._lock = threading.Lock()
        self._started_at = time.monotonic()
        self._started_wall = time.time()
        self.submitted = 0
        self.rejected = 0      #: admission failures (queue full / closed)
        self.expired = 0       #: deadlines missed before execution
        self.completed = 0
        self.failed = 0        #: requests whose execution raised
        self.mutations = 0     #: edge mutations applied while serving
        self.approx = 0        #: completions served by the sampling tier
        self.batches = 0
        self._batch_sizes: Counter[int] = Counter()
        self._queue_depth_last = 0
        self._queue_depth_max = 0
        self._latencies_ms: list[float] = []
        self._latency_stride = 1
        self._latency_seen = 0

    # -- event sinks ---------------------------------------------------
    def record_submit(self, queue_depth: int) -> None:
        with self._lock:
            self.submitted += 1
            self._queue_depth_last = queue_depth
            self._queue_depth_max = max(self._queue_depth_max, queue_depth)

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_expired(self, n: int = 1) -> None:
        with self._lock:
            self.expired += n

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self._batch_sizes[int(size)] += 1

    def record_completed(self, latency_seconds: float) -> None:
        with self._lock:
            self.completed += 1
            self._record_latency(latency_seconds * 1e3)

    def record_failed(self, n: int = 1) -> None:
        with self._lock:
            self.failed += n

    def record_mutations(self, n: int = 1) -> None:
        with self._lock:
            self.mutations += n

    def record_approx(self, n: int = 1) -> None:
        with self._lock:
            self.approx += n

    def _record_latency(self, ms: float) -> None:
        self._latency_seen += 1
        if self._latency_seen % self._latency_stride:
            return
        self._latencies_ms.append(ms)
        if len(self._latencies_ms) >= self.max_latency_samples:
            # decimate in place and sample half as often from here on
            self._latencies_ms = self._latencies_ms[::2]
            self._latency_stride *= 2

    # -- reporting -----------------------------------------------------
    def elapsed_seconds(self) -> float:
        return time.monotonic() - self._started_at

    def snapshot(self, include_samples: bool = False) -> dict:
        """A JSON-serialisable view of everything recorded so far.

        Throughput is completed requests per elapsed second since the
        telemetry was created (i.e. since the scheduler started).

        With ``include_samples=True`` the raw (decimated) latency
        samples and the current decimation stride ride along under
        ``latency_samples_ms`` / ``latency_stride`` — the extra payload
        :func:`merge_snapshots` needs, since percentiles of percentiles
        are not percentiles.
        """
        with self._lock:
            elapsed = self.elapsed_seconds()
            sizes = self._batch_sizes
            total_batched = sum(s * n for s, n in sizes.items())
            lat = self._latencies_ms
            out = {
                "started_at": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ",
                    time.gmtime(self._started_wall)),
                "elapsed_seconds": elapsed,
                "submitted": self.submitted,
                "rejected": self.rejected,
                "expired": self.expired,
                "completed": self.completed,
                "failed": self.failed,
                "mutations": self.mutations,
                "approx_completed": self.approx,
                "throughput_qps": (self.completed / elapsed) if elapsed > 0
                                  else 0.0,
                "queue_depth": {"last": self._queue_depth_last,
                                "max": self._queue_depth_max},
                "batches": {
                    "count": self.batches,
                    "mean_size": (total_batched / self.batches)
                                 if self.batches else 0.0,
                    "max_size": max(sizes) if sizes else 0,
                    "histogram": {str(s): n for s, n in sorted(sizes.items())},
                },
                "latency_ms": {
                    "samples": len(lat),
                    "mean": (sum(lat) / len(lat)) if lat else 0.0,
                    "min": min(lat) if lat else 0.0,
                    "p50": percentile(lat, 50),
                    "p90": percentile(lat, 90),
                    "p95": percentile(lat, 95),
                    "p99": percentile(lat, 99),
                    "max": max(lat) if lat else 0.0,
                },
            }
            if include_samples:
                out["latency_samples_ms"] = list(lat)
                out["latency_stride"] = self._latency_stride
            return out


def merge_snapshots(snapshots) -> dict:
    """Fold per-worker telemetry snapshots into one cluster view.

    Counters sum; the batch-size histogram merges; queue depth reports
    the sum of last-seen depths and the max of maxima.  Latency
    percentiles are recomputed from the union of each snapshot's raw
    ``latency_samples_ms`` (so inputs should come from
    ``snapshot(include_samples=True)``) — exact when every stream is
    undecimated, and within decimation tolerance otherwise, which is
    the same contract one long-running :class:`Telemetry` offers.
    Cluster throughput is total completions over the *longest* elapsed
    time, since workers run concurrently, not back to back.
    """
    snaps = [s for s in snapshots if s]
    merged_sizes: Counter[int] = Counter()
    samples: list[float] = []
    elapsed = 0.0
    counters = {k: 0 for k in ("submitted", "rejected", "expired",
                               "completed", "failed", "mutations",
                               "approx_completed")}
    depth_last = depth_max = 0
    started = None
    stride = 1
    for snap in snaps:
        for key in counters:
            counters[key] += int(snap.get(key, 0))
        elapsed = max(elapsed, float(snap.get("elapsed_seconds", 0.0)))
        for size, n in snap.get("batches", {}).get("histogram",
                                                   {}).items():
            merged_sizes[int(size)] += int(n)
        depth = snap.get("queue_depth", {})
        depth_last += int(depth.get("last", 0))
        depth_max = max(depth_max, int(depth.get("max", 0)))
        samples.extend(snap.get("latency_samples_ms", []))
        stride = max(stride, int(snap.get("latency_stride", 1)))
        at = snap.get("started_at")
        if at is not None:
            started = at if started is None else min(started, at)
    batches = sum(merged_sizes.values())
    total_batched = sum(s * n for s, n in merged_sizes.items())
    return {
        "workers": len(snaps),
        "started_at": started,
        "elapsed_seconds": elapsed,
        **counters,
        "throughput_qps": (counters["completed"] / elapsed)
                          if elapsed > 0 else 0.0,
        "queue_depth": {"last": depth_last, "max": depth_max},
        "batches": {
            "count": batches,
            "mean_size": (total_batched / batches) if batches else 0.0,
            "max_size": max(merged_sizes) if merged_sizes else 0,
            "histogram": {str(s): n
                          for s, n in sorted(merged_sizes.items())},
        },
        "latency_ms": {
            "samples": len(samples),
            "stride": stride,
            "mean": (sum(samples) / len(samples)) if samples else 0.0,
            "min": min(samples) if samples else 0.0,
            "p50": percentile(samples, 50),
            "p90": percentile(samples, 90),
            "p95": percentile(samples, 95),
            "p99": percentile(samples, 99),
            "max": max(samples) if samples else 0.0,
        },
    }

"""Outcome records, statistics, host facts and the run table."""

from __future__ import annotations

import csv
import math
import os
import platform
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: the address-space cap every workload process runs under
CAP_BYTES = 4 << 30
#: the seed whose inputs are the registry graphs themselves
DEFAULT_SEED = 0
#: a seed kept out of tuning, for re-checking a claimed gain
HELD_OUT_SEED = 7


@dataclass
class Outcome:
    """What one measured window of one workload produced."""

    workload: str
    attempted: int = 0
    #: errors (MemoryError included), rejections and expiries
    failed: int = 0
    #: answers the oracle disagreed with
    wrong: int = 0
    #: latency of every answered read or op, in ms
    latencies_ms: list = field(default_factory=list)
    #: seconds the measured window took
    wall_s: float = 0.0
    #: counts to check: dicts with graph, p, q, served, count (+ epoch)
    answers: list = field(default_factory=list)
    #: end-to-end metrics beyond the latency set, by name
    e2e: dict = field(default_factory=dict)
    #: raw per-layer numbers gathered while measuring
    layers: dict = field(default_factory=dict)
    #: one run-table row per op (oneshot-full) or none
    rows: list = field(default_factory=list)
    #: answered reads/ops by served algorithm name
    served: dict = field(default_factory=dict)

    @property
    def answered(self) -> int:
        return len(self.latencies_ms)

    def serve(self, algorithm: str) -> None:
        self.served[algorithm] = self.served.get(algorithm, 0) + 1


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not len(samples):
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(pct / 100.0 * len(ordered)) - 1))
    return float(ordered[rank])


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict:
    return {"host_cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cap_mb": CAP_BYTES >> 20,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit()}


TABLE_COLUMNS = (
    "run_id", "workload", "seed", "trace", "host_cpus", "usable_cpus",
    "cap_mb", "python", "numpy", "commit", "row", "op", "graph", "shape",
    "method", "plan_ms", "prepare_ms", "kernel_ms", "kernel_peak_mb",
    "latency_ms", "outcome", "ops_per_s", "latency_p50_ms",
    "latency_p99_ms", "write_p50_ms", "fail_share", "wrong_answers",
    "peak_rss_mb", "setup_s", "attempted", "failed")


def append_run_table(rows: list[dict]) -> None:
    """Append rows to the run table (one CSV, header on creation)."""
    path = OUT_DIR / "run_table.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists()
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS,
                                extrasaction="ignore")
        if fresh:
            writer.writeheader()
        writer.writerows(rows)

"""Native- vs fast-backend speedup on the Table II stand-ins.

The native engine's promise: counts bit-identical to ``fast`` with the
level-synchronous frontier traversal at least ``MIN_SPEEDUP`` (3x)
quicker on GBC — the paper's system — on **every** stand-in dataset,
with a 5x local target.  GBL rides along informationally (its
binary-search kernels leave less dispatch to amortise, so its ratios
are smaller but still >1x).

Timings use a warm :class:`~repro.query.GraphSession` so the
comparison isolates kernel execution: both backends reuse the same
cached order/index/HTB.  Results land in
``benchmarks/artifacts/BENCH_native.json`` — the artifact the CI
``native-bench`` job uploads.

Runs as part of the slow benchmark suite (``pytest -m "" benchmarks``)
or directly: ``python benchmarks/test_native_speedup.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import BicliqueQuery
from repro.bench.datasets import list_datasets, load_dataset
from repro.core.gbc import gbc_count
from repro.core.gbl import gbl_count
from repro.query import GraphSession

ARTIFACT_PATH = Path(__file__).parent / "artifacts" / "BENCH_native.json"
QUERY = BicliqueQuery(3, 3)
REPS = 3
#: the CI bar — every Table II stand-in must clear this on GBC
MIN_SPEEDUP = 3.0
#: the local target (informational: asserted nowhere, reported always)
TARGET_SPEEDUP = 5.0
METHODS = (("GBC", gbc_count), ("GBL", gbl_count))


def _best_seconds(fn, graph, session, backend: str) -> tuple[float, int]:
    """Best-of-REPS warm wall seconds (and the count) for one backend."""
    result = fn(graph, QUERY, backend=backend, session=session)  # warm
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = fn(graph, QUERY, backend=backend, session=session)
        best = min(best, time.perf_counter() - t0)
    return best, result.count


def _measure_dataset(key: str, scale: str) -> dict:
    graph = load_dataset(key, scale)
    session = GraphSession(graph)
    methods = {}
    for name, fn in METHODS:
        fast_secs, fast_count = _best_seconds(fn, graph, session, "fast")
        native_secs, native_count = _best_seconds(fn, graph, session,
                                                  "native")
        assert native_count == fast_count, (
            f"{key}/{name}: native {native_count} != fast {fast_count}")
        methods[name] = {
            "count": fast_count,
            "fast_seconds": fast_secs,
            "native_seconds": native_secs,
            "speedup": fast_secs / native_secs,
        }
    return {"dataset": key, "query": [QUERY.p, QUERY.q],
            "methods": methods}


def _run(scale: str) -> dict:
    return {
        "kind": "native_speedup",
        "scale": scale,
        "reps": REPS,
        "min_speedup": MIN_SPEEDUP,
        "target_speedup": TARGET_SPEEDUP,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "datasets": [_measure_dataset(key, scale)
                     for key in list_datasets()],
    }


def _render(artifact: dict) -> str:
    lines = [f"Native backend speedup — (p,q)=({QUERY.p},{QUERY.q}), "
             f"scale {artifact['scale']}",
             f"{'ds':<4}" + "".join(
                 f" {m + ' fast':>10} {m + ' nat':>10} {'x':>6}"
                 for m, _ in METHODS)]
    for row in artifact["datasets"]:
        cells = [f"{row['dataset']:<4}"]
        for name, _ in METHODS:
            m = row["methods"][name]
            cells.append(f" {m['fast_seconds'] * 1e3:>9.1f}m"
                         f" {m['native_seconds'] * 1e3:>9.1f}m"
                         f" {m['speedup']:>5.1f}x")
        lines.append("".join(cells))
    return "\n".join(lines)


def test_native_speedup(bench_scale, save_artifact):
    artifact = _run(bench_scale)
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    save_artifact("native_speedup", _render(artifact))
    for row in artifact["datasets"]:
        gbc = row["methods"]["GBC"]
        assert gbc["speedup"] >= MIN_SPEEDUP, (
            f"{row['dataset']}: GBC native speedup {gbc['speedup']:.2f}x "
            f"below the {MIN_SPEEDUP}x bar "
            f"(fast {gbc['fast_seconds'] * 1e3:.1f}ms, "
            f"native {gbc['native_seconds'] * 1e3:.1f}ms)")
        # the naive baseline must at least never lose to fast
        assert row["methods"]["GBL"]["speedup"] > 1.0, (
            f"{row['dataset']}: GBL native slower than fast")


if __name__ == "__main__":  # pragma: no cover - manual run
    artifact = _run("bench")
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    print(_render(artifact))

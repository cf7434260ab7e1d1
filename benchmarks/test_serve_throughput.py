"""Serving throughput: micro-batching scheduler vs a naive query loop.

The serving subsystem's promise: on a zipf-skewed mixed workload over
pooled graphs, the micro-batching scheduler sustains at least **2x** the
queries/sec of a naive one-query-at-a-time loop on the same backend —
with every served count bit-identical to a direct ``count(...)`` call.
The speedup comes from amortisation (one prepared session and one
result cache per graph instead of a full rebuild per request) plus
worker-thread overlap across graphs.

The 2x bar is asserted on hosts with >= 4 usable CPUs; smaller machines
still run the workload, verify bit-identical counts, record the JSON
artifact (``BENCH_serve.json``), and then skip the bar.  Runs in the
slow benchmark suite (``pytest -m "" benchmarks``) or directly:
``python benchmarks/test_serve_throughput.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import power_law_bipartite, random_bipartite
from repro.obs.trace import span, tally_kernel, tracing_enabled
from repro.parallel.sharding import default_workers
from repro.service import SchedulerConfig, WorkloadSpec, serve_bench
from repro.service.bench import write_artifact

ARTIFACT_DIR = Path(__file__).parent / "artifacts"
MIN_SPEEDUP = 2.0
MIN_CPUS_FOR_BAR = 4

SPEC = WorkloadSpec(
    graphs=("hot", "warm", "cold"),
    shapes=((2, 2), (2, 3), (3, 3), (3, 4)),
    num_queries=400,
    clients=8,
    zipf_s=1.1,
    method="GBC",
    seed=17,
)
CONFIG = SchedulerConfig(max_batch=64, workers=4, backend="fast")


def make_graphs():
    return {
        "hot": power_law_bipartite(800, 600, 4000, seed=21, name="hot"),
        "warm": random_bipartite(600, 500, 3000, seed=22, name="warm"),
        "cold": power_law_bipartite(500, 400, 2200, seed=23, name="cold"),
    }


def _render(artifact: dict) -> str:
    served, naive, tel = (artifact["served"], artifact["naive"],
                          artifact["telemetry"])
    lines = [
        f"Serving throughput — zipf mixed workload "
        f"({SPEC.num_queries} queries, {SPEC.clients} clients, "
        f"{artifact['host']['usable_cpus']} usable CPUs, backend "
        f"{artifact['scheduler']['backend']})",
        f"{'path':<8} {'requests':>8} {'qps':>9} {'p50 ms':>8} "
        f"{'p99 ms':>8}",
        f"{'served':<8} {served['completed']:>8} "
        f"{served['throughput_qps']:>9.1f} "
        f"{tel['latency_ms']['p50']:>8.1f} "
        f"{tel['latency_ms']['p99']:>8.1f}",
        f"{'naive':<8} {naive['requests']:>8} "
        f"{naive['throughput_qps']:>9.1f} {'-':>8} {'-':>8}",
        f"speedup vs naive: {artifact['speedup_vs_naive']:.2f}x "
        f"(mean batch {tel['batches']['mean_size']:.1f}, "
        f"max {tel['batches']['max_size']})",
        f"mismatches: {len(artifact['mismatches'])}",
    ]
    return "\n".join(lines)


def test_serve_throughput(save_artifact):
    # the bar below is measured with tracing off — the default, and the
    # configuration the <2% instrumentation-overhead claim is made for
    assert not tracing_enabled()
    artifact = serve_bench(make_graphs(), SPEC, config=CONFIG,
                           naive_limit=60, verify=True)
    write_artifact(artifact, ARTIFACT_DIR / "BENCH_serve.json")
    save_artifact("serve_throughput", _render(artifact))

    # the hard guarantee first: serving never changes an answer
    assert artifact["mismatches"] == [], artifact["mismatches"]
    assert artifact["served"]["completed"] == SPEC.num_queries
    assert artifact["served"]["failed"] == 0

    cpus = default_workers()
    if cpus < MIN_CPUS_FOR_BAR:
        pytest.skip(f"throughput bar needs >= {MIN_CPUS_FOR_BAR} usable "
                    f"CPUs, have {cpus} (counts verified, artifact "
                    f"recorded, measured "
                    f"{artifact['speedup_vs_naive']:.2f}x)")
    assert artifact["speedup_vs_naive"] >= MIN_SPEEDUP, (
        f"served {artifact['served']['throughput_qps']:.1f} qps vs naive "
        f"{artifact['naive']['throughput_qps']:.1f} qps = "
        f"{artifact['speedup_vs_naive']:.2f}x, below the "
        f"{MIN_SPEEDUP}x bar")


def test_disabled_tracing_overhead_is_negligible():
    """The instrumented seams cost one flag check when tracing is off.

    The serve-bench throughput bar above already runs through every
    traced seam with tracing disabled; this pins the per-call price of
    a disabled span + kernel tally directly.  5µs/iteration is ~25x the
    measured cost on a 2020s laptop and far below 2% of even the
    smallest kernel batch, so the bound fails only if someone puts real
    work on the disabled path.
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


if __name__ == "__main__":      # pragma: no cover - manual invocation
    art = serve_bench(make_graphs(), SPEC, config=CONFIG,
                      naive_limit=60, verify=True)
    write_artifact(art, ARTIFACT_DIR / "BENCH_serve.json")
    print(_render(art))
    print(json.dumps({"speedup_vs_naive": art["speedup_vs_naive"],
                      "mismatches": len(art["mismatches"])}))

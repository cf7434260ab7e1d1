"""Mutation throughput: incremental maintenance vs rebuild-per-edit.

The streaming promise of ``repro.dynamic``: on every Table II stand-in,
a :class:`~repro.dynamic.DynamicGraphSession` tracking the benchmark
shapes sustains at least **5x** the edits/sec of the pre-dynamic
workflow — rebuild the CSR graph and recount every shape after each
edit — at single-edit granularity, with every per-prefix count
bit-identical between the two arms (and a final full-recount check).

The artifact (``BENCH_mutate.json``) also records a mixed read/write
serving drive: a scheduler over dynamic pool entries answering reads
from epoch-pinned snapshots while a fraction of draws toggle edges.

Runs in the slow benchmark suite (``pytest -m "" benchmarks``) or
directly: ``python benchmarks/test_mutate_throughput.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.bench.datasets import list_datasets, load_dataset
from repro.service import SchedulerConfig, WorkloadSpec, mutate_bench
from repro.service.bench import write_artifact

ARTIFACT_DIR = Path(__file__).parent / "artifacts"
MIN_SPEEDUP = 5.0
SHAPES = ((2, 2), (2, 3), (3, 3))


def run_bench(scale: str) -> dict:
    graphs = {key: load_dataset(key, scale) for key in list_datasets()}
    spec = WorkloadSpec(graphs=tuple(sorted(graphs)), shapes=SHAPES,
                        num_queries=120, clients=8, method="GBC",
                        mutate_fraction=0.15, seed=5)
    return mutate_bench(
        graphs, shapes=SHAPES, edits=200, rebuild_limit=8,
        method="GBC", backend="fast", seed=5, serve_spec=spec,
        config=SchedulerConfig(backend="fast"))


def _render(artifact: dict) -> str:
    lines = [
        f"Mutation throughput — {artifact['edits']} single-edge toggles "
        f"per stand-in, shapes {artifact['shapes']}, backend "
        f"{artifact['backend']}",
        f"{'graph':<6} {'edges':>7} {'incr e/s':>10} {'rebuild e/s':>12} "
        f"{'speedup':>8} {'cutovers':>9}",
    ]
    for g in artifact["graphs"]:
        lines.append(
            f"{g['graph']:<6} {g['num_edges_start']:>7} "
            f"{g['incremental_edits_per_s']:>10.1f} "
            f"{g['rebuild_edits_per_s']:>12.1f} "
            f"{g['speedup_vs_rebuild']:>8.1f} "
            f"{g['dynamic_stats']['cutover_deferrals']:>9}")
    serve = artifact.get("serve")
    if serve:
        s = serve["served"]
        lines.append(f"mixed drive: {s['completed']} reads, "
                     f"{s['mutations']} mutations, {s['failed']} failed, "
                     f"{s['throughput_qps']:.1f} qps")
    lines.append(f"min speedup vs rebuild-per-edit: "
                 f"{artifact['min_speedup_vs_rebuild']:.1f}x "
                 f"(bar {MIN_SPEEDUP}x); "
                 f"mismatches: {artifact['mismatches']}")
    return "\n".join(lines)


def test_mutate_throughput(bench_scale, save_artifact):
    artifact = run_bench(bench_scale)
    write_artifact(artifact, ARTIFACT_DIR / "BENCH_mutate.json")
    save_artifact("mutate_throughput", _render(artifact))

    # the hard guarantee first: incremental never changes an answer
    assert artifact["mismatches"] == 0
    serve = artifact["serve"]["served"]
    assert serve["failed"] == 0
    assert serve["mutations"] > 0

    # a rate comparison is CPU-count independent: both arms are
    # single-threaded, so the bar holds on any host
    failing = [(g["graph"], g["speedup_vs_rebuild"])
               for g in artifact["graphs"]
               if g["speedup_vs_rebuild"] < MIN_SPEEDUP]
    assert not failing, (
        f"stand-ins below the {MIN_SPEEDUP}x single-edit bar: {failing}")


if __name__ == "__main__":      # pragma: no cover - manual invocation
    art = run_bench(os.environ.get("REPRO_BENCH_SCALE", "bench"))
    write_artifact(art, ARTIFACT_DIR / "BENCH_mutate.json")
    print(_render(art))
    print(json.dumps({"min_speedup_vs_rebuild":
                      art["min_speedup_vs_rebuild"],
                      "mismatches": art["mismatches"]}))

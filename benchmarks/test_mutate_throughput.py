"""Mutation throughput: incremental maintenance vs rebuild-per-edit.

The streaming promise of ``repro.dynamic``: on every Table II stand-in,
a :class:`~repro.dynamic.DynamicGraphSession` tracking the benchmark
shapes sustains at least **5x** the edits/sec of the pre-dynamic
workflow at single-edit granularity.  Both arms replay one
deterministic toggle stream (:func:`repro.dynamic.edit_stream`):

* **incremental** — the dynamic session applies the stream edit by
  edit, each tracked count maintained through the
  :mod:`repro.core.delta` rule (or a cutover recount when an edit lands
  on a hub pair);
* **rebuild-per-edit** — after every edit, rebuild the CSR graph from
  scratch, open a fresh :class:`~repro.query.GraphSession`, and recount
  every shape.

The rebuild arm runs only the first ``REBUILD_EDITS`` edits (it exists
to set a per-edit rate, which the prefix length does not change); over
that shared prefix the two arms' per-prefix counts must be
bit-identical, and a final full recount over the complete stream closes
the loop — a speedup can never hide a correctness regression.  Results
land in ``benchmarks/artifacts/BENCH_mutate.json``.

Runs in the slow benchmark suite (``pytest -m "" benchmarks``) or
directly: ``python benchmarks/test_mutate_throughput.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import BicliqueQuery, DynamicGraphSession, GraphSession, from_edges
from repro.bench.datasets import list_datasets, load_dataset
from repro.dynamic import edit_stream
from repro.graph.bipartite import LAYER_U

ARTIFACT_PATH = Path(__file__).parent / "artifacts" / "BENCH_mutate.json"
MIN_SPEEDUP = 5.0
SHAPES = ((2, 2), (2, 3), (3, 3))
EDITS = 200
REBUILD_EDITS = 8
METHOD = "GBC"
BACKEND = "native"
SEED = 5


def _bench_one(name: str, graph) -> dict:
    stream = edit_stream(graph, EDITS, SEED)
    limit = min(REBUILD_EDITS, len(stream))
    queries = [BicliqueQuery(p, q) for p, q in SHAPES]

    # incremental arm: tracking (baseline counts + cutover pricing) is
    # one-time preparation, excluded like prepare_seconds elsewhere
    dyn = DynamicGraphSession.from_graph(graph, name=name, method=METHOD,
                                         backend=BACKEND)
    for p, q in SHAPES:
        dyn.track(p, q)
    incr_prefix: list[list[int]] = []
    t0 = time.monotonic()
    for i, m in enumerate(stream):
        dyn.apply(m)
        counts = [dyn.count(p, q) for p, q in SHAPES]
        if i < limit:
            incr_prefix.append(counts)
    incr_seconds = time.monotonic() - t0

    # rebuild-per-edit arm over the shared prefix
    edges = {(u, int(v)) for u in range(graph.num_u)
             for v in graph.neighbors(LAYER_U, u)}
    rebuild_prefix: list[list[int]] = []
    t0 = time.monotonic()
    for m in stream[:limit]:
        key = (m.u, m.v)
        if key in edges:
            edges.discard(key)
        else:
            edges.add(key)
        rebuilt = from_edges(graph.num_u, graph.num_v, sorted(edges),
                             name=f"{name}/rebuilt")
        session = GraphSession(rebuilt)
        rebuild_prefix.append([session.count(q, METHOD,
                                             backend=BACKEND).count
                               for q in queries])
    rebuild_seconds = time.monotonic() - t0

    mismatches = []
    for i, (got, want) in enumerate(zip(incr_prefix, rebuild_prefix)):
        if got != want:
            mismatches.append({"edit": i, "incremental": got,
                               "rebuild": want})
    for (p, q) in SHAPES:
        final, oracle = dyn.count(p, q), dyn.recount(p, q)
        if final != oracle:
            mismatches.append({"edit": len(stream) - 1, "shape": [p, q],
                               "incremental": final, "recount": oracle})

    incr_eps = len(stream) / incr_seconds if incr_seconds > 0 else 0.0
    rebuild_eps = limit / rebuild_seconds if rebuild_seconds > 0 else 0.0
    return {
        "graph": name,
        "num_edges_start": graph.num_edges,
        "num_edges_end": dyn.num_edges,
        "incremental_edits_per_s": incr_eps,
        "rebuild_edits_per_s": rebuild_eps,
        "speedup_vs_rebuild": (incr_eps / rebuild_eps)
                              if rebuild_eps > 0 else 0.0,
        "dynamic_stats": dyn.stats.as_dict(),
        "mismatches": mismatches,
    }


def run_bench(scale: str) -> dict:
    per_graph = [_bench_one(key, load_dataset(key, scale))
                 for key in sorted(list_datasets())]
    return {
        "shapes": [list(s) for s in SHAPES],
        "edits": EDITS,
        "rebuild_limit": REBUILD_EDITS,
        "method": METHOD,
        "backend": BACKEND,
        "seed": SEED,
        "graphs": per_graph,
        "min_speedup_vs_rebuild": min(g["speedup_vs_rebuild"]
                                      for g in per_graph),
        "mismatches": sum(len(g["mismatches"]) for g in per_graph),
    }


def _write(artifact: dict) -> None:
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")


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
    lines.append(f"min speedup vs rebuild-per-edit: "
                 f"{artifact['min_speedup_vs_rebuild']:.1f}x "
                 f"(bar {MIN_SPEEDUP}x); "
                 f"mismatches: {artifact['mismatches']}")
    return "\n".join(lines)


def test_mutate_throughput(bench_scale, save_artifact):
    artifact = run_bench(bench_scale)
    _write(artifact)
    save_artifact("mutate_throughput", _render(artifact))

    # the hard guarantee first: incremental never changes an answer
    assert artifact["mismatches"] == 0, [g["mismatches"]
                                         for g in artifact["graphs"]]

    # a rate comparison is CPU-count independent: both arms are
    # single-threaded, so the bar holds on any host
    failing = [(g["graph"], g["speedup_vs_rebuild"])
               for g in artifact["graphs"]
               if g["speedup_vs_rebuild"] < MIN_SPEEDUP]
    assert not failing, (
        f"stand-ins below the {MIN_SPEEDUP}x single-edit bar: {failing}")


if __name__ == "__main__":      # pragma: no cover - manual invocation
    art = run_bench(os.environ.get("REPRO_BENCH_SCALE", "bench"))
    _write(art)
    print(_render(art))
    print(json.dumps({"min_speedup_vs_rebuild":
                      art["min_speedup_vs_rebuild"],
                      "mismatches": art["mismatches"]}))

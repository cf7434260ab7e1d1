"""The prepare step's memory gate: paper-sized YT under a 1 GiB cap.

A session prepare builds one wedge pass per anchored layer
(:func:`repro.graph.twohop.build_wedge_index`), which keeps only the
pairs with 2 or more common neighbours and cuts its transient arrays
into batches of ``_WEDGE_CHUNK`` wedges.  This benchmark runs one
subprocess per cell under a 1 GiB ``RLIMIT_AS`` and asserts that

* a YT-shaped graph at a third of Table II's size and one at its real
  size (``power_law_bipartite(94_238, 30_087, 328_449, seed=11)``,
  358,106 edges) each finish a session prepare at (3, 3), HTBs
  included;
* on 64 seeded promising roots of each, the rank-filtered index row
  equals the per-vertex definition: ``n2k(graph, "U", r, 3)`` kept to
  the partners of higher rank;
* on every full stand-in, the session's order, index and two-hop HTB
  at k in {2, 3, 4} on the anchored layer equal those derived from the
  full (floor-1) pass in the same process.

The artifact records each cell's prepare time, the kept pairs of its
wedge pass, and the process's VmHWM after the graph was built and after
the prepare.  Runs as part of the slow benchmark suite
(``pytest -m "" benchmarks``) or directly:
``python benchmarks/test_prepare_memory.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.datasets import list_datasets

AS_CAP_BYTES = 1 << 30
SRC = Path(__file__).resolve().parents[1] / "src"

#: name -> (graph source, the k values prepared); a generated graph is
#: (num_u, num_v, num_edges, seed) of power_law_bipartite
CELLS = {
    "YT-third": ((31_413, 10_029, 112_000, 11), (3,)),
    "YT-real": ((94_238, 30_087, 328_449, 11), (3,)),
    **{f"{name}-full": (name, (2, 3, 4)) for name in list_datasets()},
}

#: one cell, run in a child under the address-space cap; prints one JSON
#: row per prepared k, then one row of checks
_CHILD = r"""
import json, resource, sys, time
cap = int(sys.argv[3])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from repro.bench.datasets import load_dataset
from repro.core.counts import BicliqueQuery
from repro.graph.bipartite import LAYER_U
from repro.graph.generators import power_law_bipartite
from repro.graph.priority import priority_order_from_sizes, rank_from_order
from repro.graph.twohop import build_wedge_index, n2k
from repro.htb.htb import htb_from_two_hop
from repro.query import GraphSession


def status_mb(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024


source, ks = json.loads(sys.argv[2])
if isinstance(source, str):
    graph = load_dataset(source, "full")
else:
    *shape, seed = source
    graph = power_law_bipartite(*shape, seed=seed)
graph_hwm = status_mb("VmHWM")
session = GraphSession(graph)
prepared = {}
for k in ks:
    t0 = time.perf_counter()
    inputs = session.prepared(BicliqueQuery(k, k))
    session.htb_pair(inputs.anchored_layer, inputs.q)
    seconds = time.perf_counter() - t0
    wedges = session.wedges(inputs.anchored_layer)
    prepared[k] = inputs
    print(json.dumps({
        "k": k, "edges": graph.num_edges, "layer": inputs.anchored_layer,
        "floor": wedges.floor, "pairs": len(wedges.neighbors),
        "index": len(inputs.index.neighbors), "seconds": seconds,
        "graph_hwm_mb": graph_hwm, "hwm_mb": status_mb("VmHWM"),
        "peak_mb": status_mb("VmPeak")}), flush=True)

checked = mismatched = 0
if isinstance(source, str):
    # the same structures from the full multiset, in this process
    layer = prepared[ks[0]].anchored_layer
    full = build_wedge_index(session.anchored(layer), LAYER_U)
    for k, inputs in prepared.items():
        rank = rank_from_order(priority_order_from_sizes(full.n2k_sizes(k)))
        index = full.two_hop_index(k, min_priority_rank=rank)
        mine = session.htb_pair(layer, k)[1]
        theirs = htb_from_two_hop(index)
        same = (np.array_equal(rank, inputs.rank)
                and np.array_equal(index.offsets, inputs.index.offsets)
                and np.array_equal(index.neighbors, inputs.index.neighbors)
                and all(np.array_equal(getattr(mine, f), getattr(theirs, f))
                        for f in ("off", "idx", "val")))
        checked += 1
        mismatched += not same
else:
    inputs = prepared[ks[0]]
    rng = np.random.default_rng(0)
    for r in rng.choice(inputs.roots, size=64, replace=False).tolist():
        want = n2k(inputs.graph, LAYER_U, r, inputs.q)
        want = want[inputs.rank[want] > inputs.rank[r]]
        checked += 1
        mismatched += not np.array_equal(inputs.index.of(r), want)
print(json.dumps({"checked": checked, "mismatched": mismatched}),
      flush=True)
"""


def _run_cell(name: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, name, json.dumps(CELLS[name]),
         str(AS_CAP_BYTES)],
        capture_output=True, text=True, env=env, timeout=1800)
    rows = [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]
    assert proc.returncode == 0, (
        f"{name}: exited {proc.returncode} after {len(rows)} rows\n"
        f"{proc.stderr[-2000:]}")
    return {"prepared": rows[:-1], "checks": rows[-1]}


def _render(results: dict[str, dict]) -> str:
    lines = [f"session prepare (HTBs included) under a "
             f"{AS_CAP_BYTES >> 20} MiB RLIMIT_AS",
             f"{'cell':<9} {'edges':>8} {'k':>2} {'layer':>5} "
             f"{'kept pairs':>11} {'index':>10} {'prepare [s]':>11} "
             f"{'VmHWM graph':>11} {'VmHWM':>7} {'checks':>7}"]
    for name, res in results.items():
        checks = res["checks"]
        for r in res["prepared"]:
            lines.append(
                f"{name:<9} {r['edges']:>8} {r['k']:>2} {r['layer']:>5} "
                f"{r['pairs']:>11,} {r['index']:>10,} "
                f"{r['seconds']:>11.2f} {r['graph_hwm_mb']:>11.0f} "
                f"{r['hwm_mb']:>7.0f} "
                f"{checks['checked'] - checks['mismatched']:>3}/"
                f"{checks['checked']:<3}")
    return "\n".join(lines)


def _measure() -> dict[str, dict]:
    return {name: _run_cell(name) for name in CELLS}


@pytest.fixture(scope="module")
def results(save_artifact):
    measured = _measure()
    save_artifact("prepare_memory", _render(measured))
    return measured


def test_every_cell_prepares_under_the_cap(results):
    for name, (_, ks) in CELLS.items():
        rows = results[name]["prepared"]
        assert [r["k"] for r in rows] == list(ks), name
        assert all(r["floor"] == 2 for r in rows), name


def test_prepared_state_matches_its_definition(results):
    for name, res in results.items():
        checks = res["checks"]
        assert checks["checked"] > 0 and checks["mismatched"] == 0, (
            name, checks)


if __name__ == "__main__":  # pragma: no cover - manual run
    print(_render(_measure()))

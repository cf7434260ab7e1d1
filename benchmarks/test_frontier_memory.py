"""The frontier's memory gate: every full stand-in under a 2 GiB cap.

``native`` counts through the hybrid DFS-BFS frontier
(:mod:`repro.core.frontier`), whose word budget bounds every batch it
holds.  This benchmark runs every full stand-in × {(3, 3), (4, 4)} ×
{GBL, GBC, GBC-NB} on ``native``, one subprocess per stand-in under a
2 GiB ``RLIMIT_AS``, and asserts that

* every cell completes (a ``MemoryError`` or a crash fails it);
* the three methods agree on each (stand-in, shape);
* each count equals the value pinned below.

The pins were counted by the 4096-root-chunk BFS frontier this one
replaced (GBC on ``native`` under a 2.5 GiB cap) or, where that GBC
did not fit under the cap, by BCL on ``native`` (the rows marked
``BCL``: ID at (3, 3), and seven stand-ins at (4, 4)).  The artifact
records each cell's wall time, the reported working-set peak and the
subprocess's max RSS so far.  Runs as part of the slow benchmark suite
(``pytest -m "" benchmarks``) or directly:
``python benchmarks/test_frontier_memory.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

AS_CAP_BYTES = 2 << 30
SHAPES = ((3, 3), (4, 4))
METHODS = ("GBL", "GBC", "GBC-NB")
SRC = Path(__file__).resolve().parents[1] / "src"

#: (stand-in, p, q) -> count; see the module docstring for their source
PINNED = {
    ("YT", 3, 3): 58_295_953,
    ("YT", 4, 4): 897_152_355,
    ("BC", 3, 3): 14_117_406,
    ("BC", 4, 4): 117_686_926,  # BCL
    ("GH", 3, 3): 62_480_825,
    ("GH", 4, 4): 106_753_921,  # BCL
    ("SO", 3, 3): 4_660_256,
    ("SO", 4, 4): 20_958_165,  # BCL
    ("YL", 3, 3): 1_817_082_882,
    ("YL", 4, 4): 142_345_563_121,  # BCL
    ("ID", 3, 3): 22_543_907,  # BCL
    ("ID", 4, 4): 176_683_252,  # BCL
    ("LF", 3, 3): 979_834_403,
    ("LF", 4, 4): 66_632_577_480,  # BCL
    ("FR", 3, 3): 257_008_214,
    ("FR", 4, 4): 8_469_725_876,
    ("OR", 3, 3): 1_021_053_194,
    ("OR", 4, 4): 20_131_563_456,
    ("S1", 3, 3): 55_845_566_452,
    ("S1", 4, 4): 25_427_981_622_300,
    ("S2", 3, 3): 64_549_958_331,
    ("S2", 4, 4): 26_629_796_605_177,
}

#: one stand-in's cells, run in a child under the address-space cap;
#: prints one JSON row per cell
_CHILD = r"""
import json, resource, sys, time
cap = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from repro.bench.datasets import load_dataset
from repro.core.counts import BicliqueQuery
from repro.query import GraphSession

graph = load_dataset(sys.argv[1], "full")
session = GraphSession(graph)
for shape in json.loads(sys.argv[3]):
    for method in json.loads(sys.argv[4]):
        t0 = time.perf_counter()
        result = session.count(BicliqueQuery(*shape), method,
                               backend="native")
        print(json.dumps({
            "p": shape[0], "q": shape[1], "method": method,
            "count": result.count,
            "seconds": time.perf_counter() - t0,
            "peak_mb": result.peak_working_set_bytes / 2**20,
            "maxrss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}), flush=True)
"""


def _run_stand_in(dataset: str) -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, dataset, str(AS_CAP_BYTES),
         json.dumps(SHAPES), json.dumps(METHODS)],
        capture_output=True, text=True, env=env, timeout=1800)
    rows = [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]
    assert proc.returncode == 0, (
        f"{dataset}: exited {proc.returncode} after {len(rows)} cells\n"
        f"{proc.stderr[-2000:]}")
    return rows


def _render(results: dict[str, list[dict]]) -> str:
    lines = [f"native frontier under a {AS_CAP_BYTES >> 20} MiB "
             f"RLIMIT_AS — full stand-ins",
             f"{'data':<4} {'p,q':<4} {'method':<7} {'count':>15} "
             f"{'wall [s]':>9} {'peak MiB':>9} {'max RSS MiB':>12}"]
    for dataset, rows in results.items():
        for r in rows:
            lines.append(f"{dataset:<4} {r['p']},{r['q']:<2} "
                         f"{r['method']:<7} {r['count']:>15} "
                         f"{r['seconds']:>9.2f} {r['peak_mb']:>9.1f} "
                         f"{r['maxrss_mb']:>12.0f}")
    return "\n".join(lines)


def _measure() -> dict[str, list[dict]]:
    stand_ins = sorted({dataset for dataset, _, _ in PINNED})
    return {dataset: _run_stand_in(dataset) for dataset in stand_ins}


@pytest.fixture(scope="module")
def results(save_artifact):
    measured = _measure()
    save_artifact("frontier_memory", _render(measured))
    return measured


def test_every_cell_fits_and_counts_the_pin(results):
    for dataset, rows in results.items():
        assert len(rows) == len(SHAPES) * len(METHODS), dataset
        for p, q in SHAPES:
            counts = {r["method"]: r["count"] for r in rows
                      if (r["p"], r["q"]) == (p, q)}
            assert counts == dict.fromkeys(METHODS,
                                           PINNED[(dataset, p, q)]), (
                dataset, p, q, counts)


if __name__ == "__main__":  # pragma: no cover - manual run
    print(_render(_measure()))

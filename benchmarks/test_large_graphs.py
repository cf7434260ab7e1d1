"""Table II-sized stand-ins: build YT, BC and GH ``large`` under a 1 GiB cap.

``load_dataset(key, "large")`` is the ``full`` recipe of ``key`` (same
gamma and seed) at the paper's |U|, |V| and |E|.  This benchmark builds
each in its own subprocess under a 1 GiB ``RLIMIT_AS`` and asserts that

* |U| and |V| are Table II's;
* the edge count and the first 16 hex digits of the SHA-1 of
  ``u_offsets || u_neighbors || v_offsets || v_neighbors`` equal the
  pins below, taken from the per-edge CSR builder and per-row
  ``rng.choice`` sampler this package used before its vectorised
  builder: the graphs are byte-identical to those.

The artifact records each build's seconds and the process's VmHWM.
Runs as part of the slow benchmark suite (``pytest -m "" benchmarks``)
or directly: ``python benchmarks/test_large_graphs.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.datasets import PAPER_STATS

AS_CAP_BYTES = 1 << 30
SRC = Path(__file__).resolve().parents[1] / "src"

#: key -> (|E|, digest) of the ``large`` stand-in
PINS = {
    "YT": (328_449, "c5810f7bd311daa8"),
    "BC": (421_045, "961558b4545918bf"),
    "GH": (435_930, "793af5dcad881c05"),
}

#: one build, run in a child under the address-space cap; prints one
#: JSON row
_CHILD = r"""
import hashlib, json, resource, sys, time
cap = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from repro.bench.datasets import load_dataset


def status_mb(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024


t0 = time.perf_counter()
graph = load_dataset(sys.argv[1], "large")
seconds = time.perf_counter() - t0
h = hashlib.sha1()
for arr in (graph.u_offsets, graph.u_neighbors,
            graph.v_offsets, graph.v_neighbors):
    assert arr.dtype.name == "int64", arr.dtype
    h.update(arr.tobytes())
print(json.dumps({
    "num_u": graph.num_u, "num_v": graph.num_v, "edges": graph.num_edges,
    "digest": h.hexdigest()[:16], "seconds": seconds,
    "hwm_mb": status_mb("VmHWM")}), flush=True)
"""


def _run_cell(key: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, key, str(AS_CAP_BYTES)],
        capture_output=True, text=True, env=env, timeout=1800)
    assert proc.returncode == 0, (
        f"{key}: exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _render(results: dict[str, dict]) -> str:
    lines = [f"large stand-ins built under a {AS_CAP_BYTES >> 20} MiB "
             f"RLIMIT_AS",
             f"{'key':<4} {'|U|':>8} {'|V|':>8} {'|E|':>8} "
             f"{'digest':>16} {'build [s]':>9} {'VmHWM':>6}"]
    for key, r in results.items():
        lines.append(f"{key:<4} {r['num_u']:>8} {r['num_v']:>8} "
                     f"{r['edges']:>8} {r['digest']:>16} "
                     f"{r['seconds']:>9.2f} {r['hwm_mb']:>6.0f}")
    return "\n".join(lines)


def _measure() -> dict[str, dict]:
    return {key: _run_cell(key) for key in PINS}


@pytest.fixture(scope="module")
def results(save_artifact):
    measured = _measure()
    save_artifact("large_graphs", _render(measured))
    return measured


@pytest.mark.parametrize("key", sorted(PINS))
def test_large_stand_in_has_table2_layers(results, key):
    num_u, num_v = PAPER_STATS[key][:2]
    assert (results[key]["num_u"], results[key]["num_v"]) == (num_u, num_v)


@pytest.mark.parametrize("key", sorted(PINS))
def test_large_stand_in_byte_identical(results, key):
    assert (results[key]["edges"], results[key]["digest"]) == PINS[key]


if __name__ == "__main__":  # pragma: no cover - manual run
    print(_render(_measure()))

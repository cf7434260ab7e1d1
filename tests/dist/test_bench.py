"""serve-dist-bench artifact: structure, schema, leaderboard cells.

A tiny (but real) grid run — the full-size grid lives in
``benchmarks/test_dist_throughput.py``.
"""

import pytest

from repro.dist.bench import GRID_SIZES, dist_bench, make_grid_graphs
from repro.obs.leaderboard import extract_cells
from repro.obs.schema import SchemaError, validate_artifact
from repro.parallel.sharding import fork_available


def test_grid_graphs_are_deterministic():
    a = make_grid_graphs("small")
    b = make_grid_graphs("small")
    assert set(a) == {"hot", "warm", "cold"}
    for name in a:
        assert a[name].num_edges == b[name].num_edges
    assert set(GRID_SIZES) == {"small", "medium"}


@pytest.mark.skipif(not fork_available(),
                    reason="no fork on this platform")
def test_tiny_grid_artifact_schema_and_cells():
    artifact = dist_bench(topologies=(1, 2), sizes=("small",),
                          repetitions=1, num_queries=16, clients=4,
                          backend="fast")
    assert validate_artifact(artifact, name="BENCH_dist.json") == \
        "dist_bench"
    rows = artifact["rows"]
    assert len(rows) == 2
    assert {r["topology"] for r in rows} == {1, 2}
    # topology 1 is the in-process fallback, 2 is genuinely distributed
    by_topology = {r["topology"]: r for r in rows}
    assert not by_topology[1]["distributed"]
    assert by_topology[2]["distributed"]
    for row in rows:
        assert row["mismatches"] == []
        assert row["completed"] + row["rejected"] + row["expired"] \
            + row["failed"] == row["issued"]
    assert artifact["partitioned"]["exact"]
    assert "1" in artifact["throughput_qps"]["small"]

    cells = extract_cells("BENCH_dist.json", artifact)
    kinds = {(c["cell"], c["metric"]) for c in cells}
    assert ("small|1w", "throughput_qps") in kinds
    assert ("small|2w", "throughput_qps") in kinds
    assert ("small", "speedup_vs_1w") in kinds
    assert all(c["direction"] == "higher" for c in cells)


def test_artifact_schema_rejects_missing_rows():
    with pytest.raises(SchemaError):
        validate_artifact({"kind": "dist_bench", "generated": "x"},
                          name="broken")


def test_bad_topologies_rejected():
    with pytest.raises(ValueError):
        dist_bench(topologies=(0,), sizes=("small",))

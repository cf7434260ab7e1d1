"""Smoke tests for the runnable examples shipped under examples/.

Every example is smoke-run here, so tier-1 catches a broken example
before CI does.  Each example asserts its own invariants internally — a
clean run that prints its closing lines is the test.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("example, expected", [
    # reads the simulated device's metrics, so it must name sim
    ("quickstart", "memory transactions"),
    ("densest_subgraph", "density improvement"),
    ("out_of_core_partitioning", "BCPar / METIS"),
    ("recommendation_cohesion", "community ranking"),
    ("search_analysis", "top-5 U vertices"),
])
def test_example_runs(example, expected, capsys):
    runpy.run_path(str(EXAMPLES / f"{example}.py"), run_name="__main__")
    assert expected in capsys.readouterr().out


def test_batch_queries_example_runs(capsys):
    runpy.run_path(str(EXAMPLES / "batch_queries.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "batch results" in out
    assert "cache hit(s)" in out
    assert "verified" in out


def test_serve_demo_example_runs(capsys):
    runpy.run_path(str(EXAMPLES / "serve_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "served 200 queries from 8 client threads" in out
    assert "telemetry snapshot" in out
    assert "bit-identical to direct runs" in out
    assert "micro-batching" in out

"""With no engine named, every entry point runs ``native``.

One constant, :data:`repro.engine.DEFAULT_BACKEND`, and one resolver,
:func:`repro.engine.resolve_backend`, make that choice; each case below
names no engine and checks which one ran (or was planned, or priced).
"""

import contextlib
import io

import pytest

from repro import (
    BACKEND_NAMES,
    BicliqueQuery,
    CountPlan,
    DynamicGraphSession,
    GraphSession,
    Planner,
    approx_count,
    basic_count,
    batch_count,
    bcl_count,
    bclp_count,
    execute_plan,
    gbc_count,
    gbl_count,
    power_law_bipartite,
    resolve_backend,
)
from repro.bench.runner import run_method
from repro.cli import main
from repro.plan import explicit_plan

GRAPH = power_law_bipartite(40, 30, 200, seed=5)
QUERY = BicliqueQuery(2, 2)


def _predicted_engine() -> str:
    """The engine whose price a bare ``predict`` returns."""
    planner = Planner(GRAPH)
    price = planner.predict(QUERY, "GBC")
    return next(name for name in BACKEND_NAMES
                if planner.predict(QUERY, "GBC", backend=name) == price)


def _snapshot_delta() -> str:
    dyn = DynamicGraphSession.from_graph(GRAPH, track=[(2, 2)])
    result = dyn.pinned().count(QUERY)
    assert result.algorithm == "delta"
    return result.backend


def _cli_count() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["count", "--dataset", "YT", "--scale", "tiny",
                     "-p", "2", "-q", "2"]) == 0
    line, = [ln for ln in out.getvalue().splitlines() if "backend:" in ln]
    return line.rsplit("backend: ", 1)[1]


ENTRY_POINTS = {
    "gbc_count": lambda: gbc_count(GRAPH, QUERY).backend,
    "gbl_count": lambda: gbl_count(GRAPH, QUERY).backend,
    "bcl_count": lambda: bcl_count(GRAPH, QUERY).backend,
    "bclp_count": lambda: bclp_count(GRAPH, QUERY).backend,
    "basic_count": lambda: basic_count(GRAPH, QUERY).backend,
    "approx_count": lambda: approx_count(GRAPH, QUERY, samples=4).backend,
    "run_method": lambda: run_method("GBC", GRAPH, QUERY).backend,
    "session_explicit": lambda: GraphSession(GRAPH).count(QUERY,
                                                          "GBC").backend,
    "session_auto": lambda: GraphSession(GRAPH).count(QUERY,
                                                      "auto").backend,
    "batch_count": lambda: batch_count(GRAPH, "2x2").results[0].backend,
    "explicit_plan": lambda: explicit_plan(GRAPH, QUERY, "GBC").backend,
    "planner_plan": lambda: Planner(GRAPH).plan(QUERY).backend,
    "planner_predict": _predicted_engine,
    "execute_plan": lambda: execute_plan(CountPlan("GBC", 2, 2),
                                         GRAPH).backend,
    "dynamic_session": lambda: resolve_backend(
        DynamicGraphSession.from_graph(GRAPH).backend).name,
    "snapshot_delta": _snapshot_delta,
    "cli_count": _cli_count,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_engine_named_runs_native(entry):
    assert ENTRY_POINTS[entry]() == "native"

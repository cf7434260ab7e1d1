"""Cross-layer integration: one serve run traces all four seams, the
pool's shared ledger learns from scheduled executions, and tracing
never changes counts."""

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count
from repro.obs import CostLedger, tracing
from repro.obs.trace import disable_tracing
from repro.query import GraphSession
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler

GRAPHS = {
    "a": random_bipartite(30, 20, 120, seed=2),
    "b": power_law_bipartite(40, 30, 160, seed=3),
}


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


def make_pool(**kwargs) -> SessionPool:
    pool = SessionPool(**kwargs)
    for name, graph in GRAPHS.items():
        pool.register(name, graph)
    return pool


class TestFourSeams:
    def test_one_serve_run_touches_every_seam(self):
        with tracing() as rec:
            with Scheduler(make_pool(), method="auto") as sched:
                futures = [sched.submit(name, p, q)
                           for name in ("a", "b")
                           for p, q in ((2, 2), (2, 3))]
                counts = [f.result(timeout=60).count for f in futures]
        assert all(c > 0 for c in counts)
        names = rec.names()
        # planner seam
        assert "plan.rank" in names and "plan.execute" in names
        # prepared-state seam (auto plans build at least one structure)
        assert any(n.startswith("prepare.") for n in names)
        # kernel seam
        assert "kernel.batch" in names
        # scheduler lifecycle seam, with stable per-request ids
        assert {"serve.queued", "serve.batch",
                "serve.completed"} <= names
        queued = {r["attrs"]["rid"] for r in rec.records
                  if r["name"] == "serve.queued"}
        completed = {r["attrs"]["rid"] for r in rec.records
                     if r["name"] == "serve.completed"}
        assert queued == completed == {1, 2, 3, 4}

    def test_gbc_batches_tally_kernel_calls_onto_the_span(self):
        # GBC routes every frontier through the KernelBackend batch
        # entry points, so its kernel.batch span carries call counters
        with tracing() as rec:
            with Scheduler(make_pool(), method="GBC") as sched:
                sched.count("a", 3, 3)
        (span_rec,) = [r for r in rec.records
                       if r["name"] == "kernel.batch"]
        attrs = span_rec["attrs"]
        assert attrs["kernel_calls"] > 0
        assert attrs["kernel_items"] > 0
        assert any(k.startswith("calls.") for k in attrs)

    def test_served_counts_identical_with_and_without_tracing(self):
        with Scheduler(make_pool()) as sched:
            baseline = sched.count("a", 2, 2).count
        with tracing():
            with Scheduler(make_pool()) as sched:
                traced = sched.count("a", 2, 2).count
        direct = gbc_count(GRAPHS["a"], BicliqueQuery(2, 2),
                           backend="fast").count
        assert baseline == traced == direct


class TestPoolLedger:
    def test_pooled_sessions_share_the_pool_ledger(self):
        ledger = CostLedger()
        pool = make_pool(ledger=ledger)
        with Scheduler(pool, method="auto") as sched:
            sched.count("a", 2, 2)
            sched.count("b", 2, 3)
        assert len(ledger) >= 2
        # auto plans carry predictions, so cells learn ratios
        snap = ledger.snapshot()
        assert any(c["ratio"] is not None
                   for c in snap["cells"].values())

    def test_session_count_records_into_its_ledger(self):
        ledger = CostLedger()
        graph = GRAPHS["a"]
        session = GraphSession(graph, ledger=ledger)
        res = session.count(BicliqueQuery(2, 2), method="auto",
                            backend="fast")
        assert len(ledger) == 1
        cell = next(iter(ledger.snapshot()["cells"].values()))
        assert cell["observations"] == 1
        assert res.count == gbc_count(graph, BicliqueQuery(2, 2),
                                      backend="fast").count

"""The span API: off-by-default, nesting, tallies, export, summary."""

import threading

import pytest

from repro.obs import trace as trace_mod
from repro.obs.trace import (
    NULL_SPAN,
    current_span,
    disable_tracing,
    enable_tracing,
    event,
    load_records,
    render_summary,
    span,
    summarize,
    tally_kernel,
    tracing,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing globally off."""
    disable_tracing()
    yield
    disable_tracing()


class TestDisabled:
    def test_off_by_default(self):
        assert not tracing_enabled()

    def test_span_is_the_null_singleton(self):
        with span("x", a=1) as sp:
            assert sp is NULL_SPAN
        # the null span absorbs the whole surface without recording
        sp.annotate(b=2)
        sp.tally("merge", 3)
        event("nothing")
        tally_kernel("merge")
        assert current_span() is None

    def test_nothing_recorded_while_disabled(self):
        rec = enable_tracing()
        disable_tracing()
        with span("x"):
            pass
        assert len(rec) == 0


class TestRecording:
    def test_span_records_name_duration_attrs(self):
        rec = enable_tracing()
        with span("work", phase="test") as sp:
            sp.annotate(items=3)
        (r,) = rec.records
        assert r["name"] == "work"
        assert r["kind"] == "span"
        assert r["dur_ms"] >= 0.0
        assert r["attrs"] == {"phase": "test", "items": 3}
        assert r["parent_id"] is None

    def test_nesting_sets_parent_id(self):
        rec = enable_tracing()
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner"):
                pass
        inner, outer_rec = rec.records
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer_rec["span_id"]

    def test_exception_annotates_error_and_propagates(self):
        rec = enable_tracing()
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("nope")
        (r,) = rec.records
        assert r["attrs"]["error"] == "ValueError"

    def test_event_is_a_zero_duration_record(self):
        rec = enable_tracing()
        with span("outer") as outer:
            event("happened", n=1)
        ev = rec.records[0]
        assert ev["kind"] == "event"
        assert ev["name"] == "happened"
        assert ev["dur_ms"] == 0.0
        assert ev["parent_id"] == outer.span_id
        assert ev["attrs"] == {"n": 1}

    def test_tally_kernel_aggregates_into_nearest_span(self):
        rec = enable_tracing()
        with span("batch"):
            tally_kernel("merge_many", calls=2, items=10, bytes_touched=80)
            tally_kernel("merge_many", items=5)
            tally_kernel("intersect_many")
        (r,) = rec.records
        assert r["attrs"]["kernel_calls"] == 4
        assert r["attrs"]["kernel_items"] == 15
        assert r["attrs"]["kernel_bytes"] == 80
        assert r["attrs"]["calls.merge_many"] == 3
        assert r["attrs"]["calls.intersect_many"] == 1

    def test_threads_have_independent_ambient_stacks(self):
        rec = enable_tracing()
        seen = {}

        def worker():
            seen["ambient"] = current_span()
            with span("in-thread"):
                pass

        with span("main-side"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # the worker never saw the main thread's open span as a parent
        assert seen["ambient"] is None
        by_name = {r["name"]: r for r in rec.records}
        assert by_name["in-thread"]["parent_id"] is None

    def test_tracing_context_manager_restores_state(self):
        with tracing() as rec:
            assert tracing_enabled()
            with span("inside"):
                pass
        assert not tracing_enabled()
        assert rec.names() == {"inside"}


class TestPrepareSpans:
    def test_prepare_spans_record_the_bytes_they_built(self):
        """Each prepared structure's memory is on its span: the wedge
        pass's floor, kept pairs and bytes, and every index's and HTB's
        bytes."""
        from repro.core.counts import BicliqueQuery
        from repro.graph.generators import power_law_bipartite
        from repro.query import GraphSession

        session = GraphSession(power_law_bipartite(60, 40, 300, seed=4))
        with tracing() as rec:
            session.count(BicliqueQuery(3, 3), "GBC", backend="native",
                          layer="U")
            session.id_order_index(3)
        attrs = {r["name"]: r["attrs"] for r in rec.records
                 if r["name"].startswith("prepare.")}
        wedges = session.wedges("U")
        assert attrs["prepare.wedges"]["floor"] == wedges.floor == 2
        assert attrs["prepare.wedges"]["pairs"] == len(wedges.neighbors)
        assert attrs["prepare.wedges"]["bytes"] == wedges.nbytes > 0
        assert attrs["prepare.two_hop"]["bytes"] == \
            session.two_hop_index("U", 3).nbytes
        assert attrs["prepare.two_hop_id"]["bytes"] == \
            session.id_order_index(3).nbytes
        htb_adj, htb_two_hop = session.htb_pair("U", 3)
        for name, htb in (("prepare.htb_adj", htb_adj),
                          ("prepare.htb_two_hop", htb_two_hop)):
            assert attrs[name]["bytes"] == \
                htb.off.nbytes + htb.idx.nbytes + htb.val.nbytes


class TestExport:
    def test_dump_and_load_roundtrip(self, tmp_path):
        rec = enable_tracing()
        with span("a"):
            with span("b"):
                event("e")
        disable_tracing()
        path = tmp_path / "t.jsonl"
        assert rec.dump(path) == 3
        loaded = load_records(path)
        assert loaded == rec.records

    def test_summarize_builds_a_self_time_tree(self):
        rec = enable_tracing()
        for _ in range(2):
            with span("outer"):
                with span("inner"):
                    pass
                event("tick")
        rows = summarize(rec.records)
        by_path = {r["path"]: r for r in rows}
        assert by_path[("outer",)]["count"] == 2
        assert by_path[("outer", "inner")]["count"] == 2
        assert by_path[("outer", "inner")]["depth"] == 1
        assert by_path[("outer", "tick")]["kind"] == "event"
        outer = by_path[("outer",)]
        assert outer["self_ms"] <= outer["total_ms"]

    def test_render_summary_empty_and_nonempty(self):
        assert render_summary([]) == "(no spans recorded)"
        rec = enable_tracing()
        with span("thing"):
            pass
        text = render_summary(summarize(rec.records))
        assert "thing" in text
        assert "total ms" in text


class TestOverheadShape:
    def test_disabled_span_never_touches_the_ambient_stack(self):
        # not a timing assertion (CI noise owns the <2% bar in
        # benchmarks/) — just that the disabled path pushes nothing
        assert trace_mod._recorder is None
        with span("x"):
            assert trace_mod._ambient.stack == []

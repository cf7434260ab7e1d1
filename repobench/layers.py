"""Metric names and units, and the per-layer numbers read off a trace.

The spans come from two sources in one recorder: the program's own
(``plan.rank``, ``prepare.*``, ``plan.execute``, ``kernel.batch``,
``serve.*``), switched on through ``repro.tracing()``, and the
benchmark's ``bench.*`` spans around each public call it makes.
"""

from __future__ import annotations

from report import percentile

#: end-to-end metrics of every untraced run: name -> unit
E2E = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: printed beside E2E on untraced runs but kept out of BENCHMARK.json:
#: fail_share and wrong_answers are zero on a healthy run, write_p50_ms
#: exists only where there are writes, and latency_p99_ms moves by more
#: than any allowed bound between runs of serve-mixed (see README.md)
E2E_EXTRA = {
    "latency_p99_ms": "ms",
    "write_p50_ms": "ms",
    "fail_share": "fraction",
    "wrong_answers": "count",
}

#: exact methods the planner may pick, for plan.picks.<method>
METHODS = ("Basic", "BCL", "BCLP", "GBL", "GBC", "GBC-NH", "GBC-NB",
           "GBC-NW")

#: per-layer metrics of every traced run: name -> unit.  A metric whose
#: layer a workload never reaches reads 0 there.
PER_LAYER = {
    "graph.generate_s": "s",
    "plan.ms": "ms",
    "plan.runs": "1/op",
    **{f"plan.picks.{m}": "share" for m in METHODS},
    "prepare.ms": "ms",
    "prepare.builds": "1/op",
    "cache.executed_share": "share",
    "kernel.ms": "ms",
    "kernel.calls": "1/op",
    "kernel.items": "1/op",
    "kernel.peak_mb": "MiB",
    "sched.queue_wait_ms_p50": "ms",
    "sched.queue_wait_ms_p99": "ms",
    "sched.batch_size_mean": "count",
    "sched.queue_depth_max": "count",
    "pool.hit_share": "share",
    "pool.builds": "count",
    "pool.evictions": "count",
    "gen.late_ms_max": "ms",
    "write.p50_ms": "ms",
    "write.delta_updates": "count",
    "write.recounts": "count",
    "write.snapshots": "count",
    "dynamic.delta_read_share": "share",
    "dist.router_ms_p50": "ms",
    "dist.worker_ms_p50": "ms",
    "dist.ipc_ms_p50": "ms",
    "dist.partitioned_ms_p50": "ms",
    "partition.count_roots_s": "s",
    "trace.overhead_share": "share",
    "trace.unaccounted_share": "share",
}


def from_spans(records: list[dict], ops: int) -> dict:
    """Per-op layer times and work counts, and scheduler queue waits.

    Prepared-state builds the planner's probe triggers are charged to
    ``prepare.ms``, not ``plan.ms``; nested ``prepare.*`` spans count
    once in time (the outermost) and once each in ``prepare.builds``.
    """
    spans = {r["span_id"]: r for r in records if r["kind"] == "span"}

    def ancestors(rec):
        seen = set()
        while rec.get("parent_id") in spans and rec["span_id"] not in seen:
            seen.add(rec["span_id"])
            rec = spans[rec["parent_id"]]
            yield rec["name"]

    plan_ms = prepare_ms = prepare_in_plan_ms = kernel_ms = 0.0
    runs = builds = executes = calls = items = 0
    for rec in spans.values():
        name = rec["name"]
        calls += rec["attrs"].get("kernel_calls", 0)
        items += rec["attrs"].get("kernel_items", 0)
        if name == "plan.rank":
            runs += 1
            plan_ms += rec["dur_ms"]
        elif name == "plan.execute":
            executes += 1
        elif name == "kernel.batch":
            kernel_ms += rec["dur_ms"]
        elif name.startswith("prepare."):
            builds += 1
            above = list(ancestors(rec))
            if not any(a.startswith("prepare.") for a in above):
                prepare_ms += rec["dur_ms"]
                if "plan.rank" in above:
                    prepare_in_plan_ms += rec["dur_ms"]

    queued = {r["attrs"]["rid"]: r["ts"] for r in records
              if r["name"] == "serve.queued"}
    waits = [(rec["ts"] - queued[rid]) * 1e3
             for rec in spans.values() if rec["name"] == "serve.batch"
             for rid in rec["attrs"].get("rids", ()) if rid in queued]
    per = max(ops, 1)
    return {
        "plan.ms": (plan_ms - prepare_in_plan_ms) / per,
        "plan.runs": runs / per,
        "prepare.ms": prepare_ms / per,
        "prepare.builds": builds / per,
        "cache.executed_share": executes / per,
        "kernel.ms": kernel_ms / per,
        "kernel.calls": calls / per,
        "kernel.items": items / per,
        "sched.queue_wait_ms_p50": percentile(waits, 50),
        "sched.queue_wait_ms_p99": percentile(waits, 99),
    }

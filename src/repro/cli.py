"""Command-line interface: count, plan, enumerate, estimate, reproduce.

Examples::

    python -m repro count --dataset YT --scale tiny -p 3 -q 3
    python -m repro count --graph my_edges.txt -p 2 -q 2 --method BCL
    python -m repro count --dataset YT --scale bench -p 3 -q 3 --method auto
    python -m repro plan explain --dataset YT --scale tiny -p 3 -q 3
    python -m repro batch --dataset YT --scale tiny --queries 3x3,3x4,4x4
    python -m repro serve-bench --graphs YT,S1 --scale tiny --duration 2
    python -m repro enumerate --dataset S1 --scale tiny -p 3 -q 2 --limit 5
    python -m repro estimate --dataset YT --scale bench -p 4 -q 4 --samples 32
    python -m repro datasets
    python -m repro experiment fig9 --scale tiny
    python -m repro count --dataset YT --scale tiny -p 3 -q 3 --trace t.jsonl
    python -m repro trace summarize t.jsonl
    python -m repro plan explain --dataset YT --scale tiny -p 3 -q 3 \\
        --ledger costs.json --measure
    python -m repro leaderboard
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments as exp_mod
from repro.bench.datasets import PAPER_STATS, list_datasets, load_dataset
from repro.bench.runner import headline_seconds, run_method
from repro.bench.tables import format_seconds, render_table
from repro.core.counts import BicliqueQuery, DeviceRunResult
from repro.core.enumerate import enumerate_bicliques
from repro.engine import BACKEND_NAMES
from repro.errors import DeadlineExceededError, PlanError, QueryError
from repro.graph.io import read_edge_list
from repro.graph.stats import compute_stats
from repro.plan import (ACCURACIES, AUTO, Planner, execute_plan,
                        explicit_plan, method_names)
from repro.query import GraphSession, batch_count, parse_queries

__all__ = ["main", "build_parser"]


def _method_choices() -> list[str]:
    """Every --method choice: the live registry listing plus the
    planner directive — read at parser-build time, so a counter
    registered before :func:`build_parser` runs is offered."""
    return list(method_names()) + [AUTO]


EXPERIMENTS = {
    "fig1b": exp_mod.experiment_fig1b,
    "table2": exp_mod.experiment_table2,
    "fig7": exp_mod.experiment_fig7,
    "fig8": exp_mod.experiment_fig8,
    "fig9": exp_mod.experiment_fig9,
    "table3": exp_mod.experiment_table3,
    "table4": exp_mod.experiment_table4,
    "fig10": exp_mod.experiment_fig10,
    "table5": exp_mod.experiment_table5,
    "fig11": exp_mod.experiment_fig11,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="(p,q)-biclique counting — GBC reproduction (ICDE'24)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log the serving/planning internals to "
                             "stderr (-v info, -vv debug); goes before "
                             "the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_arg(p):
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record cross-layer spans (planner, prepared-"
                            "state builds, kernel batches, scheduler "
                            "lifecycle) to a JSONL file; inspect with "
                            "'repro trace summarize PATH'")

    def add_graph_args(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="edge-list file (plain or KONECT)")
        src.add_argument("--dataset", choices=list_datasets(),
                         help="a Table II stand-in")
        p.add_argument("--scale", default="tiny",
                       choices=("tiny", "bench", "full"),
                       help="stand-in scale (default tiny)")

    c = sub.add_parser("count", help="count (p,q)-bicliques")
    add_graph_args(c)
    c.add_argument("-p", type=int, required=True)
    c.add_argument("-q", type=int, required=True)
    c.add_argument("--method", default=None, choices=_method_choices(),
                   help="counting algorithm; 'auto' lets the cost-based "
                        "planner choose (default GBC, or auto when "
                        "--accuracy is not exact)")
    c.add_argument("--backend", default=None, choices=list(BACKEND_NAMES),
                   help="kernel execution engine: 'sim' reports simulated "
                        "device metrics, 'fast' skips instrumentation, "
                        "'par' shards roots over worker processes "
                        "(default: sim, or par when --workers is given)")
    c.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes for the parallel engine; "
                        "implies --backend par (default: all usable CPUs "
                        "when --backend par is chosen explicitly)")
    c.add_argument("--accuracy", default="exact", choices=list(ACCURACIES),
                   help="service tier: exact counts, the sampling tier "
                        "(reports a 95%% CI), or auto (exact when it "
                        "fits the deadline; default exact)")
    c.add_argument("--deadline", type=float, default=None, metavar="SECS",
                   help="latency budget the plan must fit; with "
                        "--accuracy exact a predicted overrun is an "
                        "error, with auto it downgrades to sampling")
    add_trace_arg(c)

    b = sub.add_parser("batch",
                       help="run many (p,q) queries with shared "
                            "precomputation and a result cache")
    add_graph_args(b)
    b.add_argument("--queries", required=True, metavar="PxQ[,PxQ...]",
                   help="comma-separated query list, e.g. 3x3,3x4,4x4")
    b.add_argument("--method", default=None, choices=_method_choices(),
                   help="counting algorithm; 'auto' plans once per "
                        "query shape and shares prepared state "
                        "(default GBC, or auto when --accuracy is "
                        "not exact)")
    b.add_argument("--backend", default=None, choices=list(BACKEND_NAMES),
                   help="kernel execution engine shared by the whole batch "
                        "(default: sim, or par when --workers is given)")
    b.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes for the parallel engine; "
                        "implies --backend par")
    b.add_argument("--accuracy", default="exact", choices=list(ACCURACIES),
                   help="service tier for every query in the batch "
                        "(default exact)")
    b.add_argument("--deadline", type=float, default=None, metavar="SECS",
                   help="per-query latency budget (see count --deadline)")
    add_trace_arg(b)

    sb = sub.add_parser(
        "serve-bench",
        help="benchmark the concurrent serving subsystem against a "
             "naive one-query-at-a-time loop and write a JSON artifact")
    sb.add_argument("--graphs", default="YT,S1", metavar="KEY[,KEY...]",
                    help="comma-separated Table II stand-in keys served "
                         "by the pool, hottest first (default YT,S1)")
    sb.add_argument("--scale", default="tiny",
                    choices=("tiny", "bench", "full"),
                    help="stand-in scale (default tiny)")
    sb.add_argument("--queries", type=int, default=200, metavar="N",
                    help="total requests in the workload (default 200)")
    sb.add_argument("--duration", type=float, default=None, metavar="SECS",
                    help="run for wall time instead of a request count")
    sb.add_argument("--mode", default="closed", choices=("closed", "open"),
                    help="closed loop (clients wait) or open loop "
                         "(fixed-rate pacer; default closed)")
    sb.add_argument("--clients", type=int, default=8,
                    help="closed-loop client threads (default 8)")
    sb.add_argument("--rate", type=float, default=200.0,
                    help="open-loop submission rate in qps (default 200)")
    sb.add_argument("--shapes", default="2x2,2x3,3x3", metavar="PxQ[,...]",
                    help="query-shape mix (default 2x2,2x3,3x3)")
    sb.add_argument("--zipf", type=float, default=1.1,
                    help="graph-popularity skew exponent (default 1.1)")
    sb.add_argument("--method", default=None, choices=_method_choices(),
                    help="counting algorithm; 'auto' adapts per "
                         "(graph, shape) through the pooled sessions "
                         "(default GBC, or auto when --accuracy is "
                         "not exact)")
    sb.add_argument("--backend", default="fast",
                    choices=list(BACKEND_NAMES),
                    help="kernel engine batches execute on (default fast)")
    sb.add_argument("--max-batch", type=int, default=64,
                    help="per-batch request cap (default 64)")
    sb.add_argument("--max-pending", type=int, default=1024,
                    help="admission bound before backpressure "
                         "(default 1024)")
    sb.add_argument("--sched-workers", type=int, default=2, metavar="N",
                    help="scheduler worker threads (default 2)")
    sb.add_argument("--max-sessions", type=int, default=None, metavar="N",
                    help="session-pool entry budget "
                         "(default: one per graph)")
    sb.add_argument("--deadline", type=float, default=None, metavar="SECS",
                    help="per-request deadline")
    sb.add_argument("--accuracy", default="exact",
                    choices=list(ACCURACIES),
                    help="service tier of every request: exact, the "
                         "sampling tier, or auto — exact when it fits "
                         "the deadline, sampling otherwise "
                         "(default exact)")
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--naive-limit", type=int, default=100, metavar="N",
                    help="request cap for the naive baseline (default 100)")
    sb.add_argument("--no-verify", action="store_true",
                    help="skip the direct-recount correctness oracle")
    sb.add_argument("--output", default="benchmarks/artifacts/"
                                        "BENCH_serve.json",
                    help="artifact path (default benchmarks/artifacts/"
                         "BENCH_serve.json)")
    add_trace_arg(sb)

    db = sub.add_parser(
        "serve-dist-bench",
        help="benchmark the multi-process serving tier over a "
             "topology x graph-size grid; writes BENCH_dist.json")
    db.add_argument("--topologies", default="1,2,4", metavar="N[,N...]",
                    help="worker counts of the grid; 1 is the "
                         "in-process baseline (default 1,2,4)")
    db.add_argument("--sizes", default="small,medium",
                    metavar="SIZE[,SIZE...]",
                    help="graph-size tiers of the grid "
                         "(small, medium; default both)")
    db.add_argument("--repetitions", type=int, default=2, metavar="N",
                    help="workload repetitions per grid point "
                         "(default 2)")
    db.add_argument("--queries", type=int, default=160, metavar="N",
                    help="requests per workload run (default 160)")
    db.add_argument("--clients", type=int, default=8,
                    help="closed-loop client threads (default 8)")
    db.add_argument("--zipf", type=float, default=1.1,
                    help="graph-popularity skew exponent (default 1.1)")
    db.add_argument("--replication", type=int, default=2, metavar="R",
                    help="replicas for the zipf-hot graph (default 2)")
    db.add_argument("--method", default="GBC",
                    choices=_method_choices(),
                    help="counting algorithm (default GBC)")
    db.add_argument("--backend", default="fast",
                    choices=list(BACKEND_NAMES),
                    help="kernel engine inside workers (default fast)")
    db.add_argument("--seed", type=int, default=17)
    db.add_argument("--no-verify", action="store_true",
                    help="skip the direct-recount correctness oracle")
    db.add_argument("--output", default="benchmarks/artifacts/"
                                        "BENCH_dist.json",
                    help="artifact path (default benchmarks/artifacts/"
                         "BENCH_dist.json)")

    mb = sub.add_parser(
        "serve-mutate-bench",
        help="benchmark incremental (p,q) maintenance against "
             "rebuild-per-edit and drive a mixed read/write workload; "
             "writes BENCH_mutate.json")
    mb.add_argument("--graphs", default="YT,S1", metavar="KEY[,KEY...]",
                    help="comma-separated Table II stand-in keys "
                         "(default YT,S1)")
    mb.add_argument("--scale", default="tiny",
                    choices=("tiny", "bench", "full"),
                    help="stand-in scale (default tiny)")
    mb.add_argument("--shapes", default="2x2,2x3,3x3", metavar="PxQ[,...]",
                    help="tracked query shapes (default 2x2,2x3,3x3)")
    mb.add_argument("--edits", type=int, default=200, metavar="N",
                    help="toggle-stream length per graph (default 200)")
    mb.add_argument("--rebuild-limit", type=int, default=16, metavar="N",
                    help="edit cap for the rebuild-per-edit baseline "
                         "(a rate needs few edits; default 16)")
    mb.add_argument("--method", default="GBC", choices=_method_choices(),
                    help="counting algorithm for recounts/rebuilds")
    mb.add_argument("--backend", default="fast",
                    choices=list(BACKEND_NAMES),
                    help="kernel engine (default fast)")
    mb.add_argument("--seed", type=int, default=0)
    mb.add_argument("--queries", type=int, default=120, metavar="N",
                    help="mixed read/write serving drive: total draws "
                         "(0 disables the serving phase; default 120)")
    mb.add_argument("--clients", type=int, default=8,
                    help="serving-drive client threads (default 8)")
    mb.add_argument("--mutate-fraction", type=float, default=0.15,
                    help="fraction of serving draws that become edge "
                         "toggles (default 0.15)")
    mb.add_argument("--output", default="benchmarks/artifacts/"
                                        "BENCH_mutate.json",
                    help="artifact path (default benchmarks/artifacts/"
                         "BENCH_mutate.json)")

    pl = sub.add_parser("plan",
                        help="inspect the cost-based query planner")
    plsub = pl.add_subparsers(dest="plan_command", required=True)
    pe = plsub.add_parser(
        "explain",
        help="rank every candidate plan for one query, with predicted "
             "(and optionally measured) cost")
    add_graph_args(pe)
    pe.add_argument("-p", type=int, required=True)
    pe.add_argument("-q", type=int, required=True)
    pe.add_argument("--backend", default=None, choices=list(BACKEND_NAMES),
                    help="rank candidates under this engine (default: "
                         "the planner's free choice, native, where "
                         "auto is GBC without a ranking)")
    pe.add_argument("--workers", type=int, default=None, metavar="N",
                    help="worker processes; implies --backend par")
    pe.add_argument("--samples", type=int, default=8,
                    help="roots per sampling probe (default 8)")
    pe.add_argument("--seed", type=int, default=0,
                    help="probe seed (plans are deterministic per seed)")
    pe.add_argument("--measure", action="store_true",
                    help="also execute every candidate and report its "
                         "measured headline seconds")
    pe.add_argument("--accuracy", default="exact",
                    choices=list(ACCURACIES),
                    help="rank this service tier's candidates "
                         "(default exact; the approx alternative is "
                         "always shown)")
    pe.add_argument("--deadline", type=float, default=None, metavar="SECS",
                    help="latency budget the ranked plans must fit")
    pe.add_argument("--ledger", default=None, metavar="PATH",
                    help="cost-ledger JSON: measured runs recorded there "
                         "calibrate the ranking and add observed/"
                         "calibrated columns; with --measure this run's "
                         "measurements are recorded back into it")

    t = sub.add_parser("trace",
                       help="inspect cross-layer trace files")
    tsub = t.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser(
        "summarize",
        help="aggregate a --trace JSONL file into a per-span "
             "time / self-time tree")
    ts.add_argument("path", help="JSONL file written by --trace")

    lb = sub.add_parser(
        "leaderboard",
        help="assemble BENCH_*.json artifacts into the regression "
             "leaderboard (BENCH_leaderboard.json + .md)")
    lb.add_argument("--artifacts", default="benchmarks/artifacts",
                    metavar="DIR",
                    help="artifact directory scanned for BENCH_*.json "
                         "(default benchmarks/artifacts)")
    lb.add_argument("--json-out", default=None, metavar="PATH",
                    help="leaderboard JSON path (default "
                         "DIR/BENCH_leaderboard.json)")
    lb.add_argument("--md-out", default=None, metavar="PATH",
                    help="leaderboard markdown path (default "
                         "DIR/BENCH_leaderboard.md)")

    e = sub.add_parser("enumerate", help="list (p,q)-bicliques")
    add_graph_args(e)
    e.add_argument("-p", type=int, required=True)
    e.add_argument("-q", type=int, required=True)
    e.add_argument("--limit", type=int, default=20)
    e.add_argument("--backend", default="fast", choices=list(BACKEND_NAMES),
                   help="kernel execution engine (enumeration needs no "
                        "metrics, so the default is fast)")

    s = sub.add_parser("estimate", help="sampled approximate count")
    add_graph_args(s)
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-q", type=int, required=True)
    s.add_argument("--samples", type=int, default=64)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--backend", default="fast", choices=list(BACKEND_NAMES),
                   help="kernel engine the estimator's subtree "
                        "enumeration runs on (default fast)")

    sub.add_parser("datasets", help="list the Table II stand-ins")

    x = sub.add_parser("experiment",
                       help="regenerate one paper table/figure")
    x.add_argument("name", choices=sorted(EXPERIMENTS))
    x.add_argument("--scale", default="bench",
                   choices=("tiny", "bench", "full"))
    return parser


def _load(args) -> object:
    if args.graph:
        return read_edge_list(args.graph)
    return load_dataset(args.dataset, args.scale)


def _sim_with_workers(args) -> bool:
    """The one invalid flag combination shared by count/batch: the
    simulated engine's accounting is defined serially."""
    if args.workers is not None and args.backend == "sim":
        print("error: --workers needs the parallel engine; drop "
              "--backend sim or use --backend par", file=sys.stderr)
        return True
    return False


def _resolve_method(args) -> str | None:
    """The effective --method: the historical GBC default, or ``auto``
    when a non-exact tier was asked for without naming a method.  None
    (an argument error) when an explicitly named exact method
    contradicts the requested tier."""
    if args.method is None:
        return AUTO if args.accuracy != "exact" else "GBC"
    if args.accuracy != "exact" and args.method not in (AUTO, "approx"):
        print(f"error: --accuracy {args.accuracy} lets the planner choose "
              f"the method; drop --method {args.method} or use "
              f"--method auto", file=sys.stderr)
        return None
    return args.method


def _print_approx(result) -> None:
    ex = result.extras
    print(f"estimate: {ex['estimate']:.1f} +- {ex['ci95']:.1f} (95% CI, "
          f"s.e. {ex['std_error']:.1f}); sampled {int(ex['samples'])} of "
          f"{int(ex['population'])} root trees, seed {int(ex['seed'])}")


def _cmd_count(args) -> int:
    if _sim_with_workers(args):
        return 2
    method = _resolve_method(args)
    if method is None:
        return 2
    graph = _load(args)
    query = BicliqueQuery(args.p, args.q)
    if method == AUTO or args.accuracy != "exact":
        try:
            plan = Planner(graph).plan(query, backend=args.backend,
                                       workers=args.workers,
                                       accuracy=args.accuracy,
                                       deadline=args.deadline)
        except DeadlineExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result = execute_plan(plan, graph, query)
        print(f"plan: auto -> {plan.method} on {plan.backend} "
              f"({plan.reason})")
    else:
        if args.deadline is not None:
            predicted = Planner(graph).predict(query, method,
                                               backend=args.backend,
                                               workers=args.workers)
            if predicted > args.deadline:
                print(f"error: {method} predicts {predicted:.3g}s "
                      f"against a {args.deadline:.3g}s deadline; retry "
                      f"with --accuracy auto", file=sys.stderr)
                return 1
        result = run_method(method, graph, query, backend=args.backend,
                            workers=args.workers)
    simulated = isinstance(result, DeviceRunResult) \
        and result.backend_instrumented
    print(f"graph: {graph}")
    print(f"({args.p},{args.q})-bicliques: {result.count}")
    if result.algorithm == "approx":
        _print_approx(result)
    print(f"method: {result.algorithm}, anchored layer: "
          f"{result.anchored_layer}, backend: {result.backend}")
    print(f"time: {format_seconds(headline_seconds(result))} "
          f"({'simulated device' if simulated else 'wall'})")
    if simulated:
        print(f"memory transactions: {result.metrics.global_transactions}; "
              f"utilisation: {result.metrics.utilization * 100:.1f}%; "
              f"steals: {result.steals}")
    return 0


def _cmd_batch(args) -> int:
    if _sim_with_workers(args):
        return 2
    method = _resolve_method(args)
    if method is None:
        return 2
    graph = _load(args)
    try:
        batch = batch_count(graph, args.queries, method=method,
                            backend=args.backend, workers=args.workers,
                            accuracy=args.accuracy, deadline=args.deadline)
    except DeadlineExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [[str(q),
             f"{r.count} (+-{r.extras['ci95']:.0f})"
             if r.algorithm == "approx" else r.count,
             format_seconds(headline_seconds(r))]
            for q, r in zip(batch.queries, batch.results)]
    print(f"graph: {graph}")
    print(render_table(f"{method} batch "
                       f"(backend: {batch.results[0].backend})",
                       ["query", "count", "time"], rows))
    s = batch.stats
    print(f"shared precomputation: {s.wedge_builds} wedge pass(es), "
          f"{s.order_builds} reorder permutation(s), "
          f"{s.index_builds} two-hop index(es), "
          f"{s.htb_adj_builds + s.htb_two_hop_builds} HTB build(s)")
    print(f"result cache: {batch.cache_hits} hit(s), "
          f"{batch.cache_misses} miss(es)")
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.service import SchedulerConfig, WorkloadSpec, serve_bench
    from repro.service.bench import write_artifact

    method = _resolve_method(args)
    if method is None:
        return 2
    names = [n.strip() for n in args.graphs.split(",") if n.strip()]
    known = list_datasets()
    for name in names:
        if name not in known:
            print(f"error: unknown dataset {name!r}; pick from {known}",
                  file=sys.stderr)
            return 2
    graphs = {name: load_dataset(name, args.scale) for name in names}
    spec = WorkloadSpec(
        graphs=tuple(names),
        shapes=tuple((bq.p, bq.q) for bq in parse_queries(args.shapes)),
        num_queries=args.queries,
        duration_seconds=args.duration,
        mode=args.mode,
        clients=args.clients,
        rate_qps=args.rate,
        zipf_s=args.zipf,
        method=method,
        deadline=args.deadline,
        accuracy=args.accuracy,
        seed=args.seed)
    config = SchedulerConfig(
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        workers=args.sched_workers,
        backend=args.backend,
        method=method,
        accuracy=args.accuracy)
    artifact = serve_bench(graphs, spec, config=config,
                           max_sessions=args.max_sessions,
                           naive_limit=args.naive_limit,
                           verify=not args.no_verify)
    path = write_artifact(artifact, args.output)

    served, naive, tel = (artifact["served"], artifact["naive"],
                          artifact["telemetry"])
    rows = [
        ["served", served["completed"],
         f"{served['throughput_qps']:.1f}",
         f"{tel['latency_ms']['p50']:.1f}",
         f"{tel['latency_ms']['p99']:.1f}"],
        ["naive", naive["requests"],
         f"{naive['throughput_qps']:.1f}", "-", "-"],
    ]
    print(render_table(
        f"serve-bench — {args.mode} loop over {', '.join(names)} "
        f"({args.scale}), backend {args.backend}",
        ["path", "requests", "qps", "p50 [ms]", "p99 [ms]"], rows))
    print(f"speedup vs naive loop: {artifact['speedup_vs_naive']:.2f}x; "
          f"mean batch {tel['batches']['mean_size']:.1f} "
          f"(max {tel['batches']['max_size']}); "
          f"rejected {served['rejected']}, expired {served['expired']}, "
          f"failed {served['failed']}, approx {served['approx_served']}")
    print(f"artifact: {path}")
    if artifact["verified"]:
        mismatches = artifact["mismatches"]
        if mismatches:
            print(f"error: {len(mismatches)} served count(s) differ from "
                  f"direct runs: {mismatches}", file=sys.stderr)
            return 1
        if served["approx_served"]:
            print(f"verified: every exact served count is bit-identical "
                  f"to a direct {method} run; every sampling-tier "
                  f"answer is within its reported 95% CI of the exact "
                  f"count")
        else:
            print(f"verified: every served (graph, p, q) count is "
                  f"bit-identical to a direct {method} run")
    if served["completed"] == 0:
        print("error: workload completed zero requests", file=sys.stderr)
        return 1
    return 0


def _cmd_serve_dist_bench(args) -> int:
    from repro.dist.bench import GRID_SIZES, dist_bench
    from repro.service.bench import write_artifact

    try:
        topologies = tuple(int(t) for t in args.topologies.split(",")
                           if t.strip())
    except ValueError:
        print(f"error: bad --topologies {args.topologies!r}",
              file=sys.stderr)
        return 2
    sizes = tuple(s.strip() for s in args.sizes.split(",") if s.strip())
    for size in sizes:
        if size not in GRID_SIZES:
            print(f"error: unknown size {size!r}; pick from "
                  f"{sorted(GRID_SIZES)}", file=sys.stderr)
            return 2
    artifact = dist_bench(topologies=topologies, sizes=sizes,
                          repetitions=args.repetitions,
                          num_queries=args.queries,
                          clients=args.clients, zipf_s=args.zipf,
                          backend=args.backend, method=args.method,
                          replication=args.replication, seed=args.seed,
                          verify=not args.no_verify)
    path = write_artifact(artifact, args.output)

    rows = [[r["graph_size"], f"{r['topology']}w", r["repetition"],
             r["completed"], f"{r['throughput_qps']:.1f}",
             f"{r['p95_ms']:.1f}", f"{r['failure_rate']:.3f}",
             len(r["mismatches"])]
            for r in artifact["rows"]]
    print(render_table(
        f"serve-dist-bench — {artifact['host']['usable_cpus']} usable "
        f"CPUs, backend {args.backend}",
        ["size", "topology", "rep", "served", "qps", "p95 [ms]",
         "fail rate", "mismatch"], rows))
    speedups = ", ".join(f"{size}: {s:.2f}x"
                         for size, s in
                         sorted(artifact["speedup_vs_1w"].items()))
    print(f"speedup vs 1 worker at {artifact['topologies'][-1]} "
          f"workers: {speedups}")
    print(f"partitioned fan-out exact: "
          f"{artifact['partitioned']['exact']}")
    print(f"artifact: {path}")
    mismatches = sum(len(r["mismatches"]) for r in artifact["rows"])
    if mismatches or not artifact["partitioned"]["exact"]:
        print(f"error: {mismatches} served counts diverged from the "
              f"direct oracle", file=sys.stderr)
        return 1
    return 0


def _cmd_serve_mutate_bench(args) -> int:
    from repro.service import SchedulerConfig, WorkloadSpec, mutate_bench
    from repro.service.bench import write_artifact

    names = [n.strip() for n in args.graphs.split(",") if n.strip()]
    known = list_datasets()
    for name in names:
        if name not in known:
            print(f"error: unknown dataset {name!r}; pick from {known}",
                  file=sys.stderr)
            return 2
    graphs = {name: load_dataset(name, args.scale) for name in names}
    shapes = tuple((bq.p, bq.q) for bq in parse_queries(args.shapes))
    serve_spec = None
    if args.queries > 0:
        serve_spec = WorkloadSpec(
            graphs=tuple(names), shapes=shapes,
            num_queries=args.queries, clients=args.clients,
            method=args.method, seed=args.seed,
            mutate_fraction=args.mutate_fraction)
    config = SchedulerConfig(backend=args.backend, method=args.method)
    artifact = mutate_bench(graphs, shapes=shapes, edits=args.edits,
                            rebuild_limit=args.rebuild_limit,
                            method=args.method, backend=args.backend,
                            seed=args.seed, serve_spec=serve_spec,
                            config=config)
    path = write_artifact(artifact, args.output)

    rows = [[g["graph"], g["edits"],
             f"{g['incremental_edits_per_s']:.1f}",
             f"{g['rebuild_edits_per_s']:.1f}",
             f"{g['speedup_vs_rebuild']:.1f}",
             g["dynamic_stats"]["cutover_deferrals"],
             len(g["mismatches"])]
            for g in artifact["graphs"]]
    print(render_table(
        f"serve-mutate-bench — {args.edits} toggles over "
        f"{', '.join(names)} ({args.scale}), shapes {args.shapes}, "
        f"backend {args.backend}",
        ["graph", "edits", "incr edits/s", "rebuild edits/s",
         "speedup", "cutovers", "mismatches"], rows))
    if serve_spec is not None:
        served = artifact["serve"]["served"]
        print(f"mixed serving drive: {served['completed']} reads, "
              f"{served['mutations']} mutations, "
              f"{served['failed']} failed, "
              f"{served['throughput_qps']:.1f} qps; final epochs "
              f"{artifact['serve']['pool']['dynamic_epochs']}")
    print(f"min speedup vs rebuild-per-edit: "
          f"{artifact['min_speedup_vs_rebuild']:.1f}x")
    print(f"artifact: {path}")
    if artifact["mismatches"]:
        print(f"error: {artifact['mismatches']} incremental count(s) "
              f"differ from rebuild/recount", file=sys.stderr)
        return 1
    if serve_spec is not None and artifact["serve"]["served"]["failed"]:
        print("error: mixed serving drive recorded failures",
              file=sys.stderr)
        return 1
    return 0


def _cmd_plan(args) -> int:
    if args.plan_command != "explain":   # pragma: no cover - argparse
        return 2
    if _sim_with_workers(args):
        return 2
    graph = _load(args)
    query = BicliqueQuery(args.p, args.q)
    ledger = None
    if args.ledger:
        import os

        from repro.obs import CostLedger
        ledger = CostLedger.load(args.ledger) \
            if os.path.exists(args.ledger) else CostLedger()
    planner = Planner(graph, samples=args.samples, seed=args.seed,
                      ledger=ledger)
    try:
        ranked = planner.rank(query, backend=args.backend,
                              workers=args.workers,
                              accuracy=args.accuracy,
                              deadline=args.deadline)
    except DeadlineExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    headers = ["rank", "method", "backend", "predicted"]
    if ledger is not None:
        headers += ["observed", "calibrated"]
    headers.append("error")
    if args.measure:
        headers.append("measured")
    rows = []
    for position, plan in enumerate(ranked, start=1):
        marker = " <- chosen" if position == 1 else ""
        rel = plan.signals.get("predicted_rel_error")
        row = [f"{position}{marker}", plan.method, plan.backend,
               # the native rule's unpriced plan carries no signals
               format_seconds(plan.predicted_seconds)
               if plan.signals else "-"]
        if ledger is not None:
            row.append("-" if plan.observed_seconds is None
                       else format_seconds(plan.observed_seconds))
            row.append("-" if plan.calibrated_seconds is None
                       else format_seconds(plan.calibrated_seconds))
        row.append("exact" if rel is None else f"~{rel * 100:.0f}%")
        if args.measure:
            row.append(format_seconds(headline_seconds(
                execute_plan(plan, graph, query, ledger=ledger))))
        rows.append(row)
    print(f"graph: {graph}")
    print(render_table(
        f"plan explain ({args.p},{args.q}) — "
        f"{len(ranked)} candidate plan(s), cheapest first", headers, rows))
    if ledger is not None and args.measure:
        cells = ledger.save(args.ledger)
        print(f"ledger: {cells} cell(s) now in {args.ledger} "
              f"(re-run to see the calibrated ranking)")
    chosen = ranked[0]
    signals = chosen.signals
    print(f"chosen: {chosen.method} on {chosen.backend} — {chosen.reason}")
    if signals:
        print(f"probe: {signals['population']} promising roots "
              f"(Basic sees {signals['basic_population']}), "
              f"~{signals['comparisons']:.0f} comparisons "
              f"(id order ~{signals['basic_comparisons']:.0f}), "
              f"est. count {signals['est_count']:.0f}, "
              f"anchored layer {signals['anchored_layer']}")
    print(f"prepared state: {', '.join(chosen.prepared)}")
    if args.accuracy == "exact":
        # always show what the sampling tier would buy, so the
        # exact-vs-approx trade is visible without re-running
        try:
            alt = planner.rank(query, backend=args.backend,
                               workers=args.workers,
                               accuracy="approx")[0]
        except (PlanError, QueryError):
            return 0       # e.g. a pinned engine the approx tier lacks
        rel = alt.signals["predicted_rel_error"]
        print(f"approx tier: {alt.samples}-sample estimate predicted "
              f"{format_seconds(alt.predicted_seconds)} "
              f"(~{rel * 100:.0f}% rel. error) on {alt.backend}")
    return 0


def _cmd_trace(args) -> int:
    if args.trace_command != "summarize":   # pragma: no cover - argparse
        return 2
    from repro.obs.trace import load_records, render_summary, summarize
    try:
        records = load_records(args.path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_summary(summarize(records)))
    return 0


def _cmd_leaderboard(args) -> int:
    from repro.obs.leaderboard import write_leaderboard
    from repro.obs.schema import SchemaError
    try:
        json_path, md_path, board = write_leaderboard(
            args.artifacts, out_json=args.json_out, out_md=args.md_out)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = board["summary"]
    print(f"leaderboard: {len(board['cells'])} cell(s) from "
          f"{len(board['artifacts'])} artifact(s) — "
          f"{summary['win']} win(s), {summary['regression']} "
          f"regression(s), {summary['flat']} flat, {summary['new']} new")
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")
    return 0


def _cmd_enumerate(args) -> int:
    graph = _load(args)
    query = BicliqueQuery(args.p, args.q)
    shown = 0
    for left, right in enumerate_bicliques(graph, query, limit=args.limit,
                                           backend=args.backend):
        print(f"L={list(left)} R={list(right)}")
        shown += 1
    if shown == 0:
        print("(no bicliques)")
    elif shown == args.limit:
        print(f"... (stopped at --limit {args.limit})")
    return 0


def _cmd_estimate(args) -> int:
    graph = _load(args)
    query = BicliqueQuery(args.p, args.q)
    # route through the plan layer like every other entry point: the
    # estimator is the registered "approx" method, the session reuses
    # prepared state exactly as a served request would
    session = GraphSession(graph)
    plan = explicit_plan(graph, query, "approx", backend=args.backend,
                         samples=args.samples, seed=args.seed)
    result = execute_plan(plan, graph, query, session=session)
    ex = result.extras
    print(f"estimate: {ex['estimate']:.1f} (+- {ex['std_error']:.1f} s.e., "
          f"95% CI +- {ex['ci95']:.1f})")
    print(f"count: {result.count} (rounded), backend: {result.backend}")
    print(f"sampled {int(ex['samples'])} of {int(ex['population'])} "
          f"root trees in {format_seconds(result.wall_seconds)}")
    return 0


def _cmd_datasets(_args) -> int:
    rows = []
    for key in list_datasets():
        g = load_dataset(key, "tiny")
        s = compute_stats(g)
        pu, pv, pe, _, _ = PAPER_STATS[key]
        rows.append([key, s.num_u, s.num_v, s.num_edges,
                     f"{pu}/{pv}/{pe}"])
    print(render_table("Table II stand-ins (tiny scale)",
                       ["key", "|U|", "|V|", "|E|", "paper |U|/|V|/|E|"],
                       rows))
    return 0


def _cmd_experiment(args) -> int:
    result = EXPERIMENTS[args.name](scale=args.scale)
    print(result.text)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI dispatch; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "plan": _cmd_plan,
        "batch": _cmd_batch,
        "serve-bench": _cmd_serve_bench,
        "serve-dist-bench": _cmd_serve_dist_bench,
        "serve-mutate-bench": _cmd_serve_mutate_bench,
        "trace": _cmd_trace,
        "leaderboard": _cmd_leaderboard,
        "enumerate": _cmd_enumerate,
        "estimate": _cmd_estimate,
        "datasets": _cmd_datasets,
        "experiment": _cmd_experiment,
    }
    if args.verbose:
        from repro.obs import configure_logging
        configure_logging(args.verbose)
    recorder = None
    if getattr(args, "trace", None):
        from repro.obs import TraceRecorder, enable_tracing
        recorder = enable_tracing(TraceRecorder())
    try:
        return handlers[args.command](args)
    finally:
        if recorder is not None:
            from repro.obs import disable_tracing
            disable_tracing()
            n = recorder.dump(args.trace)
            print(f"trace: {n} record(s) -> {args.trace}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

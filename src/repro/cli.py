"""Command-line interface: count, plan, enumerate, estimate, reproduce.

Examples::

    python -m repro count --dataset YT --scale tiny -p 3 -q 3
    python -m repro count --graph my_edges.txt -p 2 -q 2 --method BCL
    python -m repro count --dataset YT --scale bench -p 3 -q 3 --method auto
    python -m repro plan explain --dataset YT --scale tiny -p 3 -q 3
    python -m repro batch --dataset YT --scale tiny --queries 3x3,3x4,4x4
    python -m repro enumerate --dataset S1 --scale tiny -p 3 -q 2 --limit 5
    python -m repro estimate --dataset YT --scale bench -p 4 -q 4 --samples 32
    python -m repro datasets
    python -m repro experiment fig9 --scale tiny
    python -m repro count --dataset YT --scale tiny -p 3 -q 3 --trace t.jsonl
    python -m repro trace summarize t.jsonl
    python -m repro plan explain --dataset YT --scale tiny -p 3 -q 3 \\
        --ledger costs.json --measure
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import experiments as exp_mod
from repro.bench.datasets import PAPER_STATS, list_datasets, load_dataset
from repro.bench.runner import headline_seconds, run_method
from repro.bench.tables import format_seconds, render_table
from repro.core.counts import BicliqueQuery, DeviceRunResult
from repro.core.enumerate import enumerate_bicliques
from repro.engine import BACKEND_NAMES, resolve_backend
from repro.errors import DeadlineExceededError, PlanError, QueryError
from repro.graph.io import read_edge_list
from repro.graph.stats import compute_stats
from repro.plan import (ACCURACIES, AUTO, Planner, execute_plan,
                        explicit_plan, method_names)
from repro.query import GraphSession, batch_count

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

    def add_engine_args(p, workers: bool = True):
        p.add_argument("--backend", default=None,
                       choices=list(BACKEND_NAMES),
                       help="kernel execution engine: 'native' (default) "
                            "runs one batch kernel per search level, "
                            "'sim' reports simulated device metrics, "
                            "'fast' skips instrumentation")
        if workers:
            p.add_argument("--workers", type=int, default=None,
                           metavar="N",
                           help="fork native's root loop over N LPT root "
                                "shards (default: one process)")

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
                   help="counting algorithm; 'auto' is GBC on native "
                        "(default GBC, or auto when --accuracy is not "
                        "exact)")
    add_engine_args(c)
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
                   help="counting algorithm; 'auto' is GBC on native, "
                        "planned once per query shape (default GBC, or "
                        "auto when --accuracy is not exact)")
    add_engine_args(b)
    b.add_argument("--accuracy", default="exact", choices=list(ACCURACIES),
                   help="service tier for every query in the batch "
                        "(default exact)")
    b.add_argument("--deadline", type=float, default=None, metavar="SECS",
                   help="per-query latency budget (see count --deadline)")
    add_trace_arg(b)

    pl = sub.add_parser("plan",
                        help="inspect the query planner")
    plsub = pl.add_subparsers(dest="plan_command", required=True)
    pe = plsub.add_parser(
        "explain",
        help="show the plan auto runs for one query, with its price "
             "(and optionally its measured cost)")
    add_graph_args(pe)
    pe.add_argument("-p", type=int, required=True)
    pe.add_argument("-q", type=int, required=True)
    add_engine_args(pe)
    pe.add_argument("--measure", action="store_true",
                    help="also execute the plan cold and report its "
                         "measured wall seconds")
    pe.add_argument("--accuracy", default="exact",
                    choices=list(ACCURACIES),
                    help="plan this service tier (default exact; the "
                         "approx alternative is always shown)")
    pe.add_argument("--deadline", type=float, default=None, metavar="SECS",
                    help="latency budget the plan must fit")
    pe.add_argument("--ledger", default=None, metavar="PATH",
                    help="cost-ledger JSON: measured runs recorded there "
                         "calibrate the price and add observed/"
                         "calibrated seconds; with --measure this run's "
                         "measurement is recorded back into it")

    t = sub.add_parser("trace",
                       help="inspect cross-layer trace files")
    tsub = t.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser(
        "summarize",
        help="aggregate a --trace JSONL file into a per-span "
             "time / self-time tree")
    ts.add_argument("path", help="JSONL file written by --trace")

    e = sub.add_parser("enumerate", help="list (p,q)-bicliques")
    add_graph_args(e)
    e.add_argument("-p", type=int, required=True)
    e.add_argument("-q", type=int, required=True)
    e.add_argument("--limit", type=int, default=20)
    add_engine_args(e, workers=False)

    s = sub.add_parser("estimate", help="sampled approximate count")
    add_graph_args(s)
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-q", type=int, required=True)
    s.add_argument("--samples", type=int, default=64)
    s.add_argument("--seed", type=int, default=0)
    add_engine_args(s, workers=False)

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


def _bad_engine_flags(args) -> bool:
    """Whether count/batch/plan's ``--backend``/``--workers`` pick no
    engine (say, ``--workers`` off ``native``), decided by
    :func:`~repro.engine.resolve_backend` like every engine choice."""
    try:
        resolve_backend(args.backend, workers=args.workers)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    if _bad_engine_flags(args):
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
        except (DeadlineExceededError, PlanError) as exc:
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
    if _bad_engine_flags(args):
        return 2
    method = _resolve_method(args)
    if method is None:
        return 2
    graph = _load(args)
    try:
        batch = batch_count(graph, args.queries, method=method,
                            backend=args.backend, workers=args.workers,
                            accuracy=args.accuracy, deadline=args.deadline)
    except (DeadlineExceededError, PlanError) as exc:
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


def _cmd_plan(args) -> int:
    if args.plan_command != "explain":   # pragma: no cover - argparse
        return 2
    if _bad_engine_flags(args):
        return 2
    graph = _load(args)
    query = BicliqueQuery(args.p, args.q)
    ledger = None
    if args.ledger:
        import os

        from repro.obs import CostLedger
        ledger = CostLedger.load(args.ledger) \
            if os.path.exists(args.ledger) else CostLedger()
    # one session, so the exact and approx prices share one prepare
    planner = Planner(graph, session=GraphSession(graph), ledger=ledger)
    try:
        plan = planner.plan(query, backend=args.backend,
                            workers=args.workers, accuracy=args.accuracy,
                            deadline=args.deadline)
    except (DeadlineExceededError, PlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not plan.signals:
        plan = planner.priced(plan)     # no deadline asked for a price
    print(f"graph: {graph}")
    print(f"plan: {plan.method} on {plan.backend} — {plan.reason}")
    inputs = plan.signals
    if "bound" in inputs:
        line = (f"price: {format_seconds(plan.predicted_seconds)} from a "
                f"work bound of {inputs['bound']:.4g} over "
                f"{inputs['population']} promising roots at "
                f"{inputs['rate']:.4g} per s")
        if "samples" in inputs:
            line += (f", {min(plan.samples, inputs['population'])} of "
                     f"those roots sampled")
        print(line)
    else:
        print(f"price: unpriced ({plan.method} has no rate on "
              f"{plan.backend}; a deadline always admits it)")
    if ledger is not None:
        print(f"ledger: observed "
              f"{_seconds_or_dash(plan.observed_seconds)}, calibrated "
              f"{_seconds_or_dash(plan.calibrated_seconds)}")
    if "samples" in inputs:
        print(f"approx: {plan.samples} samples, "
              f"~{inputs['predicted_rel_error'] * 100:.0f}% rel. error")
    if args.measure:
        t0 = time.perf_counter()
        execute_plan(plan, graph, query, ledger=ledger)
        print(f"measured: {format_seconds(time.perf_counter() - t0)} "
              f"wall, cold")
        if ledger is not None:
            cells = ledger.save(args.ledger)
            print(f"ledger: {cells} cell(s) now in {args.ledger} "
                  f"(re-run to see the calibrated price)")
    print(f"prepared state: {', '.join(plan.prepared)}")
    if args.accuracy == "exact":
        # always show what the sampling tier would buy, so the
        # exact-vs-approx trade is visible without re-running
        alt = planner.plan(query, backend=args.backend,
                           workers=args.workers, accuracy="approx")
        rel = alt.signals["predicted_rel_error"]
        print(f"approx tier: {alt.samples}-sample estimate priced "
              f"{format_seconds(alt.predicted_seconds)} "
              f"(~{rel * 100:.0f}% rel. error) on {alt.backend}")
    return 0


def _seconds_or_dash(seconds: float | None) -> str:
    return "-" if seconds is None else format_seconds(seconds)


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
        "trace": _cmd_trace,
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

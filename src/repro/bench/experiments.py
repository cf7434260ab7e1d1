"""One function per paper artifact (tables II-V, figures 1b and 7-11).

Each ``experiment_*`` function runs the relevant workload at a chosen
dataset scale and returns an :class:`ExperimentResult` holding both the
structured data (for assertions in tests/benchmarks) and a rendered text
artifact (printed by the benchmark harness and pasted into
EXPERIMENTS.md).

Scaling conventions (see DESIGN.md §4): dataset stand-ins are orders of
magnitude smaller than the paper's, so the query grid shrinks with them —
the paper's p+q = 16 default maps to p+q = 8 here, its (4,12)..(12,4)
asymmetry grid maps to (2,6)..(6,2), and the Fig. 8 sweep {8..24} maps to
{4..12}.  Counts are exact at any scale; the claims under test are the
*shapes* listed per experiment in DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.datasets import PAPER_STATS, load_dataset
from repro.bench.figures import render_breakdown_bars, render_series
from repro.bench.runner import MethodRun, run_matrix
from repro.bench.tables import format_ratio, format_seconds, render_table
from repro.core.bcl import bcl_count
from repro.core.counts import BicliqueQuery
from repro.core.gbc import GBCOptions, gbc_count, gbc_variant
from repro.core.pipeline import run_pipeline
from repro.gpu.device import DeviceSpec, rtx_3090
from repro.graph.stats import compute_stats
from repro.partition.runner import run_bcpar, run_metis_like

__all__ = [
    "ExperimentResult", "scaled_device",
    "experiment_fig1b", "experiment_table2", "experiment_fig7",
    "experiment_fig8", "experiment_fig9", "experiment_table3",
    "experiment_table4", "experiment_fig10", "experiment_table5",
    "experiment_fig11",
    "DEFAULT_QUERY", "FIG7_QUERIES", "FIG8_TOTALS",
]

DEFAULT_QUERY = BicliqueQuery(4, 4)          # paper default (8, 8), halved
# the paper sweeps (4,12)..(12,4): q never drops below (p+q)/4.  Halving
# to p+q = 8 gives (2,6)..(6,2), but (6,2) would push q below that bound
# (no paper analogue) and its barely-filtered N2^2 lists blow up, so the
# asymmetry sweep stops at (5,3).
FIG7_QUERIES = [BicliqueQuery(2, 6), BicliqueQuery(3, 5), BicliqueQuery(4, 4),
                BicliqueQuery(5, 3)]
FIG8_TOTALS = [4, 6, 8, 10, 12]              # paper: {8, 12, 16, 20, 24}


def scaled_device() -> DeviceSpec:
    """RTX-3090 cost constants with 24 resident blocks instead of 164.

    The stand-ins are ~100x smaller than the paper's graphs; keeping all
    164 resident blocks would leave roughly one root per block and no
    scheduling slack, hiding every load-balancing effect.  Scaling the
    resident-block count with the data restores the paper's regime
    (roots >> blocks) that §V-C operates in.
    """
    from dataclasses import replace
    return replace(rtx_3090(), name="RTX3090-sim/24blk",
                   blocks_per_launch=24)


@dataclass
class ExperimentResult:
    """Structured data plus a rendered text artifact."""

    name: str
    data: dict = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


def _load_all(names, scale):
    return {name: load_dataset(name, scale) for name in names}


# ----------------------------------------------------------------------
# Fig. 1(b): BCL execution-time breakdown
# ----------------------------------------------------------------------
#: instrumented BCL runs per Fig. 1(b) dataset; each timed side takes
#: its minimum over them, so one run slowed by a busy host cannot skew
#: the breakdown
FIG1B_REPEATS = 5


def experiment_fig1b(datasets=("S2", "YT", "GH", "SO", "YL", "ID"),
                     scale: str = "bench",
                     query: BicliqueQuery = DEFAULT_QUERY) -> ExperimentResult:
    """Fraction of BCL runtime spent in 1-/2-hop intersections.

    Every time is the minimum over :data:`FIG1B_REPEATS` runs, taken
    per side: intersection seconds and total seconds.
    """
    labels, comp_s, comp_h, other, intersect_share = [], [], [], [], []
    for name in datasets:
        graph = load_dataset(name, scale)
        # breakdown plotting needs the instrumented engine
        runs = [bcl_count(graph, query, backend="sim")
                for _ in range(FIG1B_REPEATS)]
        total = max(min(r.wall_seconds for r in runs), 1e-12)
        two_hop = min(r.breakdown["comp_s_seconds"] for r in runs)
        one_hop = min(r.breakdown["comp_h_seconds"] for r in runs)
        both = min(r.breakdown["comp_s_seconds"]
                   + r.breakdown["comp_h_seconds"] for r in runs)
        labels.append(name)
        comp_s.append(two_hop / total)
        comp_h.append(one_hop / total)
        other.append(1.0 - (two_hop + one_hop) / total)
        intersect_share.append(both / total)
    fractions = {"Comp.S": comp_s, "Comp.H'": comp_h, "Others": other}
    text = render_breakdown_bars(
        f"Fig.1(b) stand-in — BCL time breakdown, (p,q)={query}",
        labels, fractions)
    return ExperimentResult(
        name="fig1b",
        data={"labels": labels, "fractions": fractions,
              "intersection_share": dict(zip(labels, intersect_share))},
        text=text)


# ----------------------------------------------------------------------
# Table II: dataset statistics
# ----------------------------------------------------------------------
def experiment_table2(scale: str = "bench") -> ExperimentResult:
    """Stand-in dataset statistics next to the paper's originals."""
    rows = []
    stats = {}
    for key in PAPER_STATS:
        graph = load_dataset(key, scale)
        s = compute_stats(graph)
        stats[key] = s
        pu, pv, pe, pdu, pdv = PAPER_STATS[key]
        rows.append([key, s.num_u, s.num_v, s.num_edges,
                     f"{s.mean_degree_u:.2f}", f"{s.mean_degree_v:.2f}",
                     f"{pdu:.2f}", f"{pdv:.2f}"])
    text = render_table(
        f"Table II stand-ins ({scale} scale) vs paper mean degrees",
        ["Dataset", "|U|", "|V|", "|E|", "dU", "dV",
         "paper dU", "paper dV"], rows)
    return ExperimentResult(name="table2", data={"stats": stats}, text=text)


# ----------------------------------------------------------------------
# Fig. 7: overall performance
# ----------------------------------------------------------------------
def experiment_fig7(datasets=("YT", "BC", "GH", "YL", "S2"),
                    queries=None,
                    methods=("BCL", "BCLP", "GBL", "GBC"),
                    scale: str = "bench",
                    spec: DeviceSpec | None = None,
                    backend: str = "sim") -> ExperimentResult:
    """Runtime of every method across datasets and (p, q) mixes.

    ``backend="sim"`` (this experiment's default, named here rather
    than left to the library's ``native``) compares simulated device
    seconds as the paper does; ``"native"`` or ``"fast"`` turns this
    into a host wall-clock sweep.
    """
    queries = list(queries) if queries is not None else FIG7_QUERIES
    spec = spec or scaled_device()
    graphs = _load_all(datasets, scale)
    runs = run_matrix(graphs, queries, list(methods), spec=spec,
                      backend=backend)
    by_cell: dict[tuple[str, str], dict[str, MethodRun]] = {}
    for run in runs:
        by_cell.setdefault((run.dataset, str(run.query)), {})[run.method] = run
    sections = []
    speedups: dict[str, list[float]] = {m: [] for m in methods if m != "GBC"}
    for dataset in graphs:
        series = {m: [] for m in methods}
        for query in queries:
            cell = by_cell[(dataset, str(query))]
            for m in methods:
                series[m].append(cell[m].seconds)
            if "GBC" in cell:
                gbc_secs = cell["GBC"].seconds
                for m in speedups:
                    if m in cell and gbc_secs > 0:
                        speedups[m].append(cell[m].seconds / gbc_secs)
        sections.append(render_series(
            f"Fig.7 stand-in — {dataset}", "(p,q)",
            [str(q) for q in queries], series))
    summary_rows = [[m,
                     format_ratio(float(np.mean(v))) if v else "-",
                     format_ratio(float(np.max(v))) if v else "-"]
                    for m, v in speedups.items()]
    sections.append(render_table("GBC speedup summary",
                                 ["vs method", "mean", "max"], summary_rows))
    return ExperimentResult(
        name="fig7",
        data={"runs": runs, "speedups": speedups},
        text="\n\n".join(sections))


# ----------------------------------------------------------------------
# Fig. 8: scalability vs query size (p + q)
# ----------------------------------------------------------------------
def experiment_fig8(datasets=("YT", "BC", "GH", "SO", "S2"),
                    totals=None,
                    methods=("BCL", "BCLP", "GBL", "GBC"),
                    scale: str = "bench",
                    spec: DeviceSpec | None = None,
                    backend: str = "sim") -> ExperimentResult:
    """Runtime as p = q = (p+q)/2 grows."""
    totals = list(totals) if totals is not None else FIG8_TOTALS
    queries = [BicliqueQuery(t // 2, t // 2) for t in totals]
    spec = spec or scaled_device()
    graphs = _load_all(datasets, scale)
    runs = run_matrix(graphs, queries, list(methods), spec=spec,
                      backend=backend)
    by_cell: dict[tuple[str, str], dict[str, MethodRun]] = {}
    for run in runs:
        by_cell.setdefault((run.dataset, str(run.query)), {})[run.method] = run
    sections = []
    series_by_dataset = {}
    for dataset in graphs:
        series = {m: [] for m in methods}
        for query in queries:
            for m in methods:
                series[m].append(by_cell[(dataset, str(query))][m].seconds)
        series_by_dataset[dataset] = series
        sections.append(render_series(
            f"Fig.8 stand-in — {dataset}", "p+q",
            totals, series))
    return ExperimentResult(
        name="fig8",
        data={"runs": runs, "series": series_by_dataset, "totals": totals},
        text="\n\n".join(sections))


# ----------------------------------------------------------------------
# Fig. 9: ablation (NH / NB / NW)
# ----------------------------------------------------------------------
def experiment_fig9(datasets=("YT", "BC", "GH", "YL", "S1"),
                    queries=None,
                    scale: str = "bench",
                    spec: DeviceSpec | None = None) -> ExperimentResult:
    """Speedup of full GBC over each crippled variant (ratio > 1 = win)."""
    queries = list(queries) if queries is not None else FIG7_QUERIES
    spec = spec or scaled_device()
    variants = ("NH", "NB", "NW")
    ratios: dict[str, dict[str, list[float]]] = \
        {v: {d: [] for d in datasets} for v in variants}
    for dataset in datasets:
        graph = load_dataset(dataset, scale)
        for query in queries:
            # ablation ratios are transaction-driven: force the simulated
            # backend regardless of any session-wide default
            full = gbc_count(graph, query, spec=spec, backend="sim")
            for v in variants:
                crippled = gbc_count(graph, query, spec=spec,
                                     options=gbc_variant(v), backend="sim")
                if crippled.count != full.count:
                    raise AssertionError(
                        f"variant {v} miscounts on {dataset} {query}")
                ratios[v][dataset].append(
                    crippled.device_seconds / max(full.device_seconds, 1e-30))
    sections = []
    for dataset in datasets:
        rows = [[v] + [format_ratio(r) for r in ratios[v][dataset]]
                for v in variants]
        sections.append(render_table(
            f"Fig.9 stand-in — {dataset}: variant time / GBC time",
            ["variant"] + [str(q) for q in queries], rows))
    return ExperimentResult(
        name="fig9",
        data={"ratios": ratios, "queries": [str(q) for q in queries]},
        text="\n\n".join(sections))


# ----------------------------------------------------------------------
# Table III: reordering comparison
# ----------------------------------------------------------------------
def experiment_table3(datasets=("YT", "BC", "GH", "SO", "YL", "ID", "S1", "S2"),
                      query: BicliqueQuery = DEFAULT_QUERY,
                      scale: str = "bench",
                      spec: DeviceSpec | None = None,
                      border_iterations: int | None = None) -> ExperimentResult:
    """GBC counting time on unreordered / Gorder / Border graphs."""
    spec = spec or scaled_device()
    rows = []
    data = {}
    for dataset in datasets:
        graph = load_dataset(dataset, scale)
        cells = {}
        counts = set()
        for method in ("none", "gorder", "border"):
            pipe = run_pipeline(graph, query, reorder=method, spec=spec,
                                border_iterations=border_iterations,
                                backend="sim")
            cells[method] = pipe
            counts.add(pipe.result.count)
        if len(counts) != 1:
            raise AssertionError(f"reordering changed the count on {dataset}")
        data[dataset] = {m: cells[m].counting_seconds for m in cells}
        data[dataset]["count"] = counts.pop()
        rows.append([dataset,
                     format_seconds(cells["none"].counting_seconds),
                     format_seconds(cells["gorder"].counting_seconds),
                     format_seconds(cells["border"].counting_seconds)])
    text = render_table(
        f"Table III stand-in — GBC time by reordering, (p,q)={query}",
        ["Dataset", "No Reorder", "Gorder", "Border"], rows)
    return ExperimentResult(name="table3", data=data, text=text)


# ----------------------------------------------------------------------
# Table IV: load balancing strategies
# ----------------------------------------------------------------------
def experiment_table4(datasets=("SO", "S2", "BC", "LF", "FR"),
                      query: BicliqueQuery = DEFAULT_QUERY,
                      scale: str = "bench",
                      spec: DeviceSpec | None = None) -> ExperimentResult:
    """GBC device time under none / pre / runtime / joint balancing.

    The kernels are executed once per dataset; the four strategies then
    re-schedule the measured per-root cycle costs (placement + stealing
    are purely scheduling decisions, so this is exact and ~4x cheaper).
    """
    from repro.balance.strategies import evaluate_strategy

    spec = spec or scaled_device()
    strategies = ("none", "pre", "runtime", "joint")
    rows = []
    data = {}
    for dataset in datasets:
        graph = load_dataset(dataset, scale)
        base = gbc_count(graph, query, spec=spec, backend="sim")
        cell = {}
        for strategy in strategies:
            sched = evaluate_strategy(strategy,
                                      np.asarray(base.per_root_cycles),
                                      np.asarray(base.root_weights),
                                      spec.blocks_per_launch, spec)
            cell[strategy] = spec.seconds(sched.makespan_cycles)
        data[dataset] = cell
        rows.append([dataset] + [format_seconds(cell[s]) for s in strategies])
    text = render_table(
        f"Table IV stand-in — GBC time by balancing strategy, (p,q)={query}",
        ["Dataset", "No Balance", "Pre-runtime", "Runtime", "Joint"], rows)
    return ExperimentResult(name="table4", data=data, text=text)


# ----------------------------------------------------------------------
# Fig. 10: BCPar vs METIS-like partitioning throughput
# ----------------------------------------------------------------------
def experiment_fig10(dataset: str = "OR",
                     queries=None,
                     scale: str = "bench",
                     budget_fraction: float = 0.25,
                     spec: DeviceSpec | None = None) -> ExperimentResult:
    """Throughput (bicliques/s) on partitioned graphs, intra vs inter."""
    spec = spec or scaled_device()
    queries = list(queries) if queries is not None else \
        [BicliqueQuery(2, 2), BicliqueQuery(3, 3), BicliqueQuery(4, 4)]
    graph = load_dataset(dataset, scale)
    rows_overall, rows_split = [], []
    data = {}
    for query in queries:
        # compute time is modelled from merge comparisons, which only
        # the instrumented engine counts
        bc_report, pset = run_bcpar(graph, query,
                                    budget_words=_budget_words(graph, query,
                                                               budget_fraction),
                                    backend="sim")
        me_report, _ = run_metis_like(graph, query,
                                      num_parts=max(pset.num_partitions, 2),
                                      backend="sim")
        if bc_report.total_count != me_report.total_count:
            raise AssertionError("partitioned counts disagree")
        bc_tp = bc_report.throughput(spec)
        me_tp = me_report.throughput(spec)
        bc_intra, bc_inter = bc_report.split_throughputs(spec)
        me_intra, me_inter = me_report.split_throughputs(spec)
        data[str(query)] = {
            "bcpar": bc_report, "metis": me_report,
            "bcpar_throughput": bc_tp, "metis_throughput": me_tp,
            "bcpar_split": (bc_intra, bc_inter),
            "metis_split": (me_intra, me_inter),
            "partitions": pset.num_partitions,
        }
        rows_overall.append([str(query), f"{bc_tp:.3g}", f"{me_tp:.3g}",
                             format_ratio(bc_tp / me_tp if me_tp else float("inf"))])
        rows_split.append([str(query), f"{me_intra:.3g}", f"{me_inter:.3g}",
                           f"{bc_intra:.3g}", f"{bc_inter:.3g}"])
    text = "\n\n".join([
        render_table(f"Fig.10(a) stand-in — throughput on {dataset} (#bicliques/s)",
                     ["(p,q)", "BCPar", "METIS-like", "BCPar/METIS"],
                     rows_overall),
        render_table("Fig.10(b) stand-in — intra vs inter partition throughput",
                     ["(p,q)", "METIS intra", "METIS inter",
                      "BCPar intra", "BCPar inter"], rows_split),
    ])
    return ExperimentResult(name="fig10", data=data, text=text)


def _budget_words(graph, query, fraction: float) -> int:
    """Delegates to :func:`repro.partition.runner.recommended_budget_words`."""
    from repro.partition.runner import recommended_budget_words
    return recommended_budget_words(graph, query.q, fraction)


# ----------------------------------------------------------------------
# Table V: component breakdown
# ----------------------------------------------------------------------
def experiment_table5(datasets=("YT", "BC", "GH", "SO", "YL", "ID", "S1", "S2"),
                      query: BicliqueQuery = DEFAULT_QUERY,
                      scale: str = "bench",
                      spec: DeviceSpec | None = None,
                      border_iterations: int | None = None) -> ExperimentResult:
    """HTB transform / reorder / counting time per dataset."""
    spec = spec or scaled_device()
    rows = []
    data = {}
    for dataset in datasets:
        graph = load_dataset(dataset, scale)
        pipe = run_pipeline(graph, query, reorder="border", spec=spec,
                            border_iterations=border_iterations,
                            backend="sim")
        comp = {
            "htb_transform": pipe.htb_transform_seconds,
            "reorder": pipe.reorder_seconds,
            "counting": pipe.counting_seconds,
        }
        data[dataset] = comp
        rows.append([dataset,
                     format_seconds(comp["htb_transform"]),
                     format_seconds(comp["reorder"]),
                     format_seconds(comp["counting"])])
    text = render_table(
        f"Table V stand-in — GBC component costs, (p,q)={query} "
        "(reorder is host wall time; counting is simulated device time)",
        ["Dataset", "HTB transform", "Reorder", "Counting"], rows)
    return ExperimentResult(name="table5", data=data, text=text)


# ----------------------------------------------------------------------
# Fig. 11: DFS vs hybrid DFS-BFS
# ----------------------------------------------------------------------
def experiment_fig11(datasets=("YT", "BC", "GH", "SO", "YL"),
                     query: BicliqueQuery = DEFAULT_QUERY,
                     scale: str = "bench",
                     spec: DeviceSpec | None = None) -> ExperimentResult:
    """Memory and runtime of pure DFS vs hybrid DFS-BFS exploration."""
    spec = spec or scaled_device()
    rows = []
    data = {}
    for dataset in datasets:
        graph = load_dataset(dataset, scale)
        hybrid = gbc_count(graph, query, spec=spec, backend="sim")
        dfs = gbc_count(graph, query, spec=spec,
                        options=GBCOptions(hybrid=False), backend="sim")
        if hybrid.count != dfs.count:
            raise AssertionError(f"hybrid changed the count on {dataset}")
        mem_ratio = (hybrid.peak_working_set_bytes
                     / max(dfs.peak_working_set_bytes, 1))
        time_ratio = dfs.device_seconds / max(hybrid.device_seconds, 1e-30)
        data[dataset] = {
            "hybrid_bytes": hybrid.peak_working_set_bytes,
            "dfs_bytes": dfs.peak_working_set_bytes,
            "memory_ratio": mem_ratio,
            "speedup": time_ratio,
            "hybrid_seconds": hybrid.device_seconds,
            "dfs_seconds": dfs.device_seconds,
        }
        rows.append([dataset,
                     f"{dfs.peak_working_set_bytes}B",
                     f"{hybrid.peak_working_set_bytes}B",
                     format_ratio(mem_ratio),
                     format_seconds(dfs.device_seconds),
                     format_seconds(hybrid.device_seconds),
                     format_ratio(time_ratio)])
    text = render_table(
        f"Fig.11 stand-in — DFS vs hybrid DFS-BFS, (p,q)={query}",
        ["Dataset", "DFS mem", "Hybrid mem", "mem x",
         "DFS time", "Hybrid time", "speedup"], rows)
    return ExperimentResult(name="fig11", data=data, text=text)

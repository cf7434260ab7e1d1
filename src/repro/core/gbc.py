"""GBC — GPU-based Biclique Counting (Algorithm 1), on the simulated device.

The full system of the paper: hybrid DFS-BFS exploration (§IV), HTB
truncated-bitmap intersections (§V-A), and joint pre-runtime + runtime
load balancing (§V-C).  Each ingredient can be disabled independently,
which yields the ablation variants of Fig. 9:

* ``hybrid=False``  -> NH (pure DFS, per-child warp rounds, global keys)
* ``use_htb=False`` -> NB (CSR parallel binary search)
* ``balance="none"`` -> NW (naive contiguous split, no stealing)

Counting is exact regardless of the toggles — they change the simulated
execution (transactions, slot occupancy, shared-memory traffic, makespan),
which is precisely what the paper's ablation measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from repro.core.counts import BicliqueQuery, DeviceRunResult
from repro.core.device_common import (
    BALANCE_STRATEGIES,
    assign_roots_to_blocks,
    comb_sum,
    prepare_device_inputs,
)
from repro.core.frontier import (csr_frontier_count, frontier_over_shards,
                                 htb_frontier_count)
from repro.graph.csr import row_lengths
from repro.engine.base import KernelBackend, resolve_backend
from repro.errors import QueryError
from repro.gpu.costmodel import effective_cycles
from repro.gpu.device import DeviceSpec, rtx_3090
from repro.gpu.metrics import KernelMetrics
from repro.gpu.workqueue import simulate_blocks
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.htb.htb import HTB, BitmapSet, htb_from_graph, htb_from_two_hop
from repro.plan.registry import MethodSpec, register_method

__all__ = ["GBCOptions", "gbc_count", "gbc_variant"]


@dataclass(frozen=True)
class GBCOptions:
    """Feature toggles and tuning knobs for a GBC run."""

    hybrid: bool = True            # hybrid DFS-BFS exploration (§IV)
    use_htb: bool = True           # HTB intersections (§V-A)
    balance: str = "joint"         # none | pre | runtime | joint (§V-C)
    num_blocks: int | None = None  # defaults to the device's resident blocks
    batch_limit: int | None = None # cap on children per BFS batch (testing)

    def __post_init__(self) -> None:
        if self.balance not in BALANCE_STRATEGIES:
            raise QueryError(
                f"balance must be one of {BALANCE_STRATEGIES}, "
                f"got {self.balance!r}")

    @property
    def variant_name(self) -> str:
        """The paper's name for this configuration (GBC/NH/NB/NW)."""
        if not self.hybrid and self.use_htb and self.balance == "joint":
            return "GBC-NH"
        if self.hybrid and not self.use_htb and self.balance == "joint":
            return "GBC-NB"
        if self.hybrid and self.use_htb and self.balance == "none":
            return "GBC-NW"
        if self.hybrid and self.use_htb and self.balance == "joint":
            return "GBC"
        return "GBC-custom"


def gbc_variant(name: str) -> GBCOptions:
    """Options for the paper's named variants: GBC, NH, NB, NW."""
    table = {
        "GBC": GBCOptions(),
        "NH": GBCOptions(hybrid=False),
        "NB": GBCOptions(use_htb=False),
        "NW": GBCOptions(balance="none"),
    }
    if name not in table:
        raise QueryError(f"unknown GBC variant {name!r}; "
                         f"expected one of {sorted(table)}")
    return table[name]


class _WorkingSet:
    """Tracks the kernel's intermediate-result footprint in words.

    DFS holds one CL/CR pair per search level; hybrid BFS additionally
    stages the duplicated parent set plus the batch's child results —
    the 1.3x memory overhead of Fig. 11 made measurable.
    """

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def push(self, words: int) -> None:
        self.current += words
        if self.current > self.peak:
            self.peak = self.current

    def pop(self, words: int) -> None:
        self.current -= words


@dataclass
class _RootKernel:
    """Per-root search executor (one simulated thread block)."""

    inputs: object
    spec: DeviceSpec
    opts: GBCOptions
    engine: KernelBackend
    htb1: HTB | None
    htb2: HTB | None
    metrics: KernelMetrics = field(default_factory=KernelMetrics)
    working: _WorkingSet = field(default_factory=_WorkingSet)
    total: int = 0

    # -- representation helpers ---------------------------------------
    def _batch_size(self, cl_words: int) -> int:
        """⌊|B| / |CL[l-1]|⌋ with B the shared-memory buffer (§IV)."""
        if not self.opts.hybrid:
            return 1
        buffer_words = self.spec.shared_mem_per_block // 4
        size = max(1, buffer_words // max(cl_words, 1))
        if self.opts.batch_limit is not None:
            size = min(size, self.opts.batch_limit)
        return size

    # -- HTB path ------------------------------------------------------
    def _run_htb(self, root: int, p: int, q: int) -> None:
        htb1, htb2 = self.htb1, self.htb2
        cr0 = htb1.view(root)
        cl0 = htb2.view(root)
        self.engine.charge_stream(self.metrics,
                                  2 * (cr0.num_words + cl0.num_words))
        if p == 1:
            self.total += comb(cr0.count(), q)
            return
        self._rec_htb(1, cl0, cr0, p, q)

    def _rec_htb(self, depth: int, cl: BitmapSet, cr: BitmapSet,
                 p: int, q: int) -> None:
        children = cl.vertices()
        parent_words = 2 * (cl.num_words + cr.num_words)
        self.working.push(parent_words)
        batch = self._batch_size(parent_words)
        hybrid = self.opts.hybrid and batch > 1
        warps = self.spec.warps_per_block
        for start in range(0, len(children), batch):
            group = children[start:start + batch]
            if hybrid:
                # one global->shared staging of the parent sets, duplicated
                # |group| times in the shared buffer
                self.engine.charge_stream(self.metrics, parent_words)
                dup_words = parent_words * len(group)
                self.engine.note_shared_peak(self.metrics, 4 * dup_words)
                self.working.push(dup_words)
                self.engine.record_work(
                    self.metrics,
                    len(group) * max(cl.num_words, cr.num_words),
                    self.spec.warps_per_block)
            if depth + 1 == p:
                # leaf level: only popcounts feed the binomial sum —
                # sizes below q contribute comb(.) == 0, like the
                # per-child guard they replace
                counts = self.engine.bitmap_intersect_counts(
                    cr, self.htb1, group, self.metrics, warps=warps,
                    keys_in_shared=hybrid, record_slots=not hybrid)
                self.total += comb_sum(counts, q)
                if hybrid:
                    self.working.pop(parent_words * len(group))
                continue
            new_crs = self.engine.bitmap_intersect_many(
                cr, self.htb1, group, self.metrics, warps=warps,
                keys_in_shared=hybrid, record_slots=not hybrid)
            keep = [j for j, s in enumerate(new_crs) if s.count() >= q]
            results = []
            if keep:
                new_cls = self.engine.bitmap_intersect_many(
                    cl, self.htb2, group[keep], self.metrics,
                    warps=warps,
                    keys_in_shared=hybrid, record_slots=not hybrid)
                need = p - depth - 1
                for j, new_cl in zip(keep, new_cls):
                    if new_cl.count() < need:
                        continue
                    results.append((new_cl, new_crs[j]))
            if hybrid:
                self.working.pop(parent_words * len(group))
            for new_cl, new_cr in results:
                self._rec_htb(depth + 1, new_cl, new_cr, p, q)
        self.working.pop(parent_words)

    # -- CSR path (NB variant) ----------------------------------------
    def _run_csr(self, root: int, p: int, q: int) -> None:
        g = self.inputs.graph
        index = self.inputs.index
        cr0 = g.neighbors(LAYER_U, root)
        cl0 = index.of(root)
        self.engine.charge_stream(self.metrics, len(cr0) + len(cl0))
        if p == 1:
            self.total += comb(len(cr0), q)
            return
        self._rec_csr(1, cl0, cr0, p, q)

    def _rec_csr(self, depth: int, cl: np.ndarray, cr: np.ndarray,
                 p: int, q: int) -> None:
        g = self.inputs.graph
        index = self.inputs.index
        adj_off, adj_val = g.u_offsets, g.u_neighbors
        idx_off, idx_val = index.offsets, index.neighbors
        parent_words = len(cl) + len(cr)
        self.working.push(parent_words)
        batch = self._batch_size(parent_words)
        hybrid = self.opts.hybrid and batch > 1
        warps = self.spec.warps_per_block
        for start in range(0, len(cl), batch):
            group = cl[start:start + batch]
            if hybrid:
                self.engine.charge_stream(self.metrics, parent_words)
                dup_words = parent_words * len(group)
                self.engine.note_shared_peak(self.metrics, 4 * dup_words)
                self.working.push(dup_words)
                self.engine.record_work(self.metrics,
                                        len(group) * max(len(cl), len(cr)),
                                        self.spec.warps_per_block)
            if depth + 1 == p:
                sizes = self.engine.intersect_sizes(
                    cr, adj_off, adj_val, group, self.metrics,
                    warps=warps, record_slots=not hybrid)
                self.total += comb_sum(sizes, q)
                if hybrid:
                    self.working.pop(parent_words * len(group))
                continue
            new_crs = self.engine.intersect_many(
                cr, adj_off, adj_val, group, self.metrics,
                warps=warps, record_slots=not hybrid)
            keep = [j for j, arr in enumerate(new_crs) if len(arr) >= q]
            results = []
            if keep:
                new_cls = self.engine.intersect_many(
                    cl, idx_off, idx_val, group[keep], self.metrics,
                    warps=warps, record_slots=not hybrid)
                need = p - depth - 1
                for j, new_cl in zip(keep, new_cls):
                    if len(new_cl) < need:
                        continue
                    results.append((new_cl, new_crs[j]))
            if hybrid:
                self.working.pop(parent_words * len(group))
            for new_cl, new_cr in results:
                self._rec_csr(depth + 1, new_cl, new_cr, p, q)
        self.working.pop(parent_words)

    # -------------------------------------------------------------
    def run(self, root: int, p: int, q: int) -> None:
        if self.opts.use_htb:
            self._run_htb(root, p, q)
        else:
            self._run_csr(root, p, q)


def _gbc_chunk_kernel(inputs, positions, spec: DeviceSpec, opts: GBCOptions,
                      engine: KernelBackend, htb1: HTB | None,
                      htb2: HTB | None
                      ) -> tuple[int, list[float], KernelMetrics, int]:
    """Run the per-root kernel over a chunk of root positions."""
    total = 0
    cycles: list[float] = []
    agg = KernelMetrics()
    peak_words = 0
    for pos in positions:
        kernel = _RootKernel(inputs=inputs, spec=spec, opts=opts,
                             engine=engine, htb1=htb1, htb2=htb2,
                             metrics=engine.new_metrics())
        kernel.run(int(inputs.roots[pos]), inputs.p, inputs.q)
        total += kernel.total
        cycles.append(effective_cycles(kernel.metrics, spec))
        agg.merge(kernel.metrics)
        peak_words = max(peak_words, kernel.working.peak)
    return total, cycles, agg, peak_words


def gbc_count(graph: BipartiteGraph, query: BicliqueQuery,
              spec: DeviceSpec | None = None,
              options: GBCOptions | None = None,
              layer: str | None = None,
              backend: KernelBackend | str | None = None,
              workers: int | None = None,
              session=None) -> DeviceRunResult:
    """Count (p, q)-bicliques with GBC on the simulated device.

    Returns a :class:`DeviceRunResult` whose ``breakdown`` carries the
    Table V components (HTB transform seconds, counting makespan) and the
    utilisation/imbalance diagnostics used across §VII.  With
    ``backend="fast"`` the count is identical but all device accounting
    (metrics, makespan, device seconds) stays zero — use ``wall_seconds``.
    With ``workers=N`` (on ``native``) the frontier runs over N LPT root
    shards in forked children, merged deterministically.  With a
    :class:`repro.query.GraphSession` as ``session=``, the priority
    order, two-hop index and both HTBs come from the session's caches —
    built once and shared across every query of a batch.
    """
    spec = spec or rtx_3090()
    engine = resolve_backend(backend, spec, workers=workers)
    opts = options or GBCOptions()
    wall0 = time.perf_counter()
    inputs = prepare_device_inputs(graph, query, layer, session=session)
    blocks = opts.num_blocks or spec.blocks_per_launch

    htb1 = htb2 = None
    htb_seconds = 0.0
    if opts.use_htb:
        t0 = time.perf_counter()
        if session is not None:
            htb1, htb2 = session.htb_pair(inputs.anchored_layer, inputs.q)
        else:
            htb1 = htb_from_graph(inputs.graph, LAYER_U)
            htb2 = htb_from_two_hop(inputs.index)
        htb_seconds = time.perf_counter() - t0

    weights = row_lengths(inputs.index.offsets,
                          inputs.roots).astype(np.float64)
    total = 0
    per_root_cycles = [0.0] * len(inputs.roots)
    agg = KernelMetrics()
    peak_words = 0
    stealing = opts.balance in ("runtime", "joint")
    if engine.frontier:
        # hybrid DFS-BFS traversal (identical counts, one pairwise
        # kernel call per word-budgeted slice of a search level);
        # the hybrid batching knobs only shape simulated accounting,
        # which the frontier engines don't collect
        agg = engine.new_metrics()
        if opts.use_htb:
            def frontier(roots):
                return htb_frontier_count(
                    engine, agg, htb1, htb2, roots, inputs.p, inputs.q,
                    warps=spec.warps_per_block)
        else:
            def frontier(roots):
                return csr_frontier_count(
                    engine, agg, inputs.graph.u_offsets,
                    inputs.graph.u_neighbors, inputs.index.offsets,
                    inputs.index.neighbors, roots, inputs.p, inputs.q,
                    warps=spec.warps_per_block)
        total, peak_words = frontier_over_shards(engine, frontier,
                                                 inputs.roots, weights)
        # no per-root cycle profile exists on the frontier path (the
        # engine is uninstrumented and roots run level-batched, not
        # block-by-block), so there is no schedule to simulate
        sched = simulate_blocks([], spec, stealing=stealing)
    else:
        for idxs, part in engine.map_shards(
                lambda idxs: _gbc_chunk_kernel(inputs, idxs, spec, opts,
                                               engine, htb1, htb2),
                len(inputs.roots), weights=weights):
            part_total, part_cycles, part_agg, part_peak = part
            total += part_total
            agg.merge(part_agg)
            peak_words = max(peak_words, part_peak)
            for pos, i in enumerate(idxs):
                per_root_cycles[i] = part_cycles[pos]
        assignment = assign_roots_to_blocks(inputs.roots, weights, blocks,
                                            opts.balance)
        costs = [[per_root_cycles[i] for i in blk] for blk in assignment]
        sched = simulate_blocks(costs, spec, stealing=stealing)

    return DeviceRunResult(
        algorithm=opts.variant_name,
        query=query,
        count=total,
        wall_seconds=time.perf_counter() - wall0,
        anchored_layer=inputs.anchored_layer,
        metrics=agg,
        makespan_cycles=sched.makespan_cycles,
        device_seconds=spec.seconds(sched.makespan_cycles),
        steals=sched.steals,
        peak_working_set_bytes=4 * peak_words,
        per_root_cycles=per_root_cycles,
        root_weights=weights.tolist(),
        breakdown={
            "prepare_seconds": inputs.prepare_seconds,
            "htb_transform_seconds": htb_seconds,
            "imbalance": sched.imbalance,
            "utilization": agg.utilization,
            "htb_bytes": float((htb1.nbytes + htb2.nbytes)
                               if opts.use_htb else 0.0),
        },
        backend=engine.name,
        backend_instrumented=engine.instrumented,
    )


register_method(MethodSpec(
    name="GBC",
    runner=gbc_count,
    accepts=("spec", "options", "layer", "backend", "workers", "session"),
    prepared_kinds=("wedges", "order", "two_hop", "htb"),
    # work-bound units per second of a cold count, per engine: the
    # geometric mean over the bench stand-ins (docs/ARCHITECTURE.md)
    rates={"sim": 0.24e6, "fast": 0.59e6, "native": 6.0e6},
    order=50,
    summary="hybrid DFS-BFS + HTB + joint balancing (the paper's system)",
))

for _variant in ("NH", "NB", "NW"):
    register_method(MethodSpec(
        name=f"GBC-{_variant}",
        runner=gbc_count,
        accepts=("spec", "options", "layer", "backend", "workers",
                 "session"),
        ablation=True,
        # NB intersects CSR rows, so it never reads the HTBs
        prepared_kinds=("wedges", "order", "two_hop")
        + (() if _variant == "NB" else ("htb",)),
        default_options=(lambda v=_variant: gbc_variant(v)),
        order=60 + ("NH", "NB", "NW").index(_variant),
        summary=f"Fig. 9 ablation: GBC without "
                f"{dict(NH='hybrid DFS-BFS', NB='HTB bitmaps', NW='load balancing')[_variant]}",
    ))

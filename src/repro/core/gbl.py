"""GBL — the naive GPU baseline of §III-B, on the simulated device.

One thread block per root (strided ``i += gridDim`` assignment), pure DFS
backtracking, and parallel binary search over CSR adjacency lists for both
candidate-set updates.  Every binary-search probe gathers from global
memory, so transaction counts blow up with list length and tree depth —
the inefficiency HTB was designed against (Example 5).
"""

from __future__ import annotations

import time
from math import comb

import numpy as np

from repro.core.counts import BicliqueQuery, DeviceRunResult
from repro.core.device_common import (
    assign_roots_to_blocks,
    comb_sum,
    prepare_device_inputs,
)
from repro.core.frontier import csr_frontier_count, frontier_over_shards
from repro.graph.csr import row_lengths
from repro.engine.base import KernelBackend, resolve_backend
from repro.gpu.costmodel import effective_cycles
from repro.plan.registry import MethodSpec, register_method
from repro.gpu.device import DeviceSpec, rtx_3090
from repro.gpu.metrics import KernelMetrics
from repro.gpu.workqueue import simulate_blocks
from repro.graph.bipartite import BipartiteGraph, LAYER_U

__all__ = ["gbl_count"]


def _gbl_root_kernel(inputs, root: int, spec: DeviceSpec,
                     engine: KernelBackend) -> tuple[int, KernelMetrics]:
    """DFS search tree of one root with binary-search intersections.

    Each recursion level submits its whole frontier (every candidate's
    CR update, then the survivors' CL updates) through the engine's
    batch entry points — one kernel call per level instead of one per
    candidate, the launch shape of the paper's kernels.  The default
    batch implementations loop the scalar kernel with identical
    arguments, so simulated metrics are unchanged.
    """
    g = inputs.graph
    index = inputs.index
    adj_off, adj_val = g.u_offsets, g.u_neighbors
    idx_off, idx_val = index.offsets, index.neighbors
    p, q = inputs.p, inputs.q
    warps = spec.warps_per_block
    metrics = engine.new_metrics()

    cr0 = g.neighbors(LAYER_U, root)
    cl0 = index.of(root)
    # initial coalesced loads of N(root) and N2^q(root)
    engine.charge_stream(metrics, len(cr0) + len(cl0))
    total = 0
    if p == 1:
        return comb(len(cr0), q), metrics

    def rec(depth: int, cl: np.ndarray, cr: np.ndarray) -> None:
        nonlocal total
        if depth + 1 == p:
            # leaf level: only intersection sizes feed the binomial sum
            sizes = engine.intersect_sizes(cr, adj_off, adj_val, cl,
                                           metrics, warps=warps)
            total += comb_sum(sizes, q)
            return
        new_crs = engine.intersect_many(cr, adj_off, adj_val, cl,
                                        metrics, warps=warps)
        keep = [j for j, arr in enumerate(new_crs) if len(arr) >= q]
        if not keep:
            return
        new_cls = engine.intersect_many(cl, idx_off, idx_val, cl[keep],
                                        metrics, warps=warps)
        need = p - depth - 1
        for j, new_cl in zip(keep, new_cls):
            if len(new_cl) < need:
                continue
            rec(depth + 1, new_cl, new_crs[j])

    rec(1, cl0, cr0)
    return total, metrics


def _gbl_chunk_kernel(inputs, positions, spec: DeviceSpec,
                      engine: KernelBackend
                      ) -> tuple[int, list[float], KernelMetrics]:
    """Run the per-root kernel over a chunk of root positions."""
    total = 0
    cycles: list[float] = []
    agg = KernelMetrics()
    for pos in positions:
        got, metrics = _gbl_root_kernel(inputs, int(inputs.roots[pos]),
                                        spec, engine)
        total += got
        cycles.append(effective_cycles(metrics, spec))
        agg.merge(metrics)
    return total, cycles, agg


def gbl_count(graph: BipartiteGraph, query: BicliqueQuery,
              spec: DeviceSpec | None = None,
              layer: str | None = None,
              num_blocks: int | None = None,
              backend: KernelBackend | str | None = None,
              workers: int | None = None,
              session=None) -> DeviceRunResult:
    """Count (p, q)-bicliques with the GPU baseline (simulated device
    metrics on ``backend="sim"``).

    ``session=`` (a :class:`repro.query.GraphSession`) serves the
    priority order and two-hop index from the per-graph caches.
    """
    spec = spec or rtx_3090()
    engine = resolve_backend(backend, spec, workers=workers)
    wall0 = time.perf_counter()
    inputs = prepare_device_inputs(graph, query, layer, session=session)
    blocks = num_blocks or spec.blocks_per_launch

    weights = row_lengths(inputs.index.offsets,
                          inputs.roots).astype(np.float64)
    total = 0
    per_root_cycles = [0.0] * len(inputs.roots)
    agg = KernelMetrics()
    peak_words = 0
    if engine.frontier:
        # hybrid DFS-BFS traversal: one pairwise kernel call per
        # word-budgeted slice of a search level (identical counts, none
        # of the per-node dispatch the recursion pays)
        agg = engine.new_metrics()
        total, peak_words = frontier_over_shards(
            engine,
            lambda roots: csr_frontier_count(
                engine, agg, inputs.graph.u_offsets,
                inputs.graph.u_neighbors, inputs.index.offsets,
                inputs.index.neighbors, roots, inputs.p, inputs.q,
                warps=spec.warps_per_block),
            inputs.roots, weights)
        # no per-root cycle profile exists on the frontier path (the
        # engine is uninstrumented and roots run level-batched, not
        # block-by-block), so there is no schedule to simulate
        sched = simulate_blocks([], spec, stealing=False)
    else:
        for idxs, (part_total, part_cycles, part_agg) in engine.map_shards(
                lambda idxs: _gbl_chunk_kernel(inputs, idxs, spec, engine),
                len(inputs.roots), weights=weights):
            total += part_total
            agg.merge(part_agg)
            for pos, i in enumerate(idxs):
                per_root_cycles[i] = part_cycles[pos]
        assignment = assign_roots_to_blocks(inputs.roots, weights, blocks,
                                            "interleave")
        costs = [[per_root_cycles[i] for i in blk] for blk in assignment]
        sched = simulate_blocks(costs, spec, stealing=False)

    return DeviceRunResult(
        algorithm="GBL",
        query=query,
        count=total,
        wall_seconds=time.perf_counter() - wall0,
        anchored_layer=inputs.anchored_layer,
        metrics=agg,
        makespan_cycles=sched.makespan_cycles,
        device_seconds=spec.seconds(sched.makespan_cycles),
        steals=sched.steals,
        peak_working_set_bytes=4 * peak_words,
        breakdown={
            "prepare_seconds": inputs.prepare_seconds,
            "imbalance": sched.imbalance,
            "utilization": agg.utilization,
        },
        backend=engine.name,
        backend_instrumented=engine.instrumented,
    )


register_method(MethodSpec(
    name="GBL",
    runner=gbl_count,
    accepts=("spec", "layer", "backend", "workers", "session"),
    # work-bound units per second of a cold count, per engine: the
    # geometric mean over the bench stand-ins (docs/ARCHITECTURE.md)
    rates={"sim": 0.27e6, "fast": 1.4e6, "native": 3.8e6},
    order=40,
    summary="naive GPU port: binary-search intersections (§III-B)",
))

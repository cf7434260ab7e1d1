"""Out-of-memory execution over partitions (the Fig. 10 experiment).

Each partition is loaded onto the simulated device and its roots'
search trees are enumerated there.  The enumeration is exact (the sum
over partitions equals the whole-graph count — tested), while the
accounting differs by partitioner:

* **BCPar** partitions are autonomous: one up-front PCIe transfer of the
  partition's closure, zero on-demand traffic afterwards.
* **METIS-like** parts hold only their members' data: whenever the search
  expands a vertex resident elsewhere, its adjacency (w(u) words) crosses
  PCIe on demand — and repeatedly, since nothing pins it (§VI's
  "a certain portion of data is transferred multiple times").

Bicliques are classified *intra* (every L-vertex owned by the same part)
or *inter* (L spans parts); Fig. 10(b) contrasts their throughputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np

from repro.core.bcl import count_root
from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs
from repro.engine.base import KernelBackend, resolve_backend
from repro.gpu.device import DeviceSpec
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.twohop import TwoHopIndex, build_two_hop_index
from repro.partition.bcpar import PartitionSet, bcpar_partition
from repro.partition.metislike import MetisLikeResult, metis_like_partition

__all__ = ["PartitionRunReport", "build_root_index", "count_roots",
           "run_partitioned_count", "run_bcpar", "run_metis_like",
           "recommended_budget_words"]


def recommended_budget_words(graph: BipartiteGraph, q: int,
                             fraction: float = 0.25) -> int:
    """A sane memory budget: ``fraction`` of the full resident footprint,
    floored at twice the largest single-root closure.

    A device that cannot hold one root's working set cannot run the
    algorithm at all — the paper's out-of-memory setting assumes per-root
    working sets fit while the *whole graph* does not.
    """
    index = build_two_hop_index(graph, LAYER_U, q)
    weights = graph.degrees(LAYER_U).astype(np.int64) + np.diff(index.offsets)
    total = int(graph.num_edges + index.total_entries())
    max_closure = 0
    for u in range(graph.num_u):
        closure = int(weights[u]) + int(weights[index.of(u)].sum())
        max_closure = max(max_closure, closure)
    return max(int(total * fraction), 2 * max_closure, 64)


@dataclass
class PartitionRunReport:
    """Aggregate outcome of a partitioned counting run."""

    method: str
    query: BicliqueQuery
    total_count: int = 0
    intra_count: int = 0
    inter_count: int = 0
    comparisons: int = 0
    initial_transfer_words: int = 0
    on_demand_transfer_words: int = 0
    num_partitions: int = 0
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    def compute_seconds(self, spec: DeviceSpec) -> float:
        return spec.seconds(float(self.comparisons))

    def transfer_seconds(self, spec: DeviceSpec) -> float:
        words = self.initial_transfer_words + self.on_demand_transfer_words
        return 4.0 * words / spec.pcie_bytes_per_second

    def total_seconds(self, spec: DeviceSpec) -> float:
        return self.compute_seconds(spec) + self.transfer_seconds(spec)

    def throughput(self, spec: DeviceSpec) -> float:
        """Bicliques per simulated second (Fig. 10(a) metric)."""
        secs = self.total_seconds(spec)
        return self.total_count / secs if secs > 0 else float("inf")

    def split_throughputs(self, spec: DeviceSpec) -> tuple[float, float]:
        """(intra, inter) throughputs for Fig. 10(b).

        Compute time and the up-front partition loads are split
        proportionally to counts (both kinds of biclique need them); all
        on-demand traffic is attributed to inter work, since only
        part-spanning expansions trigger it.
        """
        total = max(self.total_count, 1)
        base = self.compute_seconds(spec) \
            + 4.0 * self.initial_transfer_words / spec.pcie_bytes_per_second
        intra_secs = base * (self.intra_count / total)
        inter_secs = base * (self.inter_count / total) \
            + 4.0 * self.on_demand_transfer_words / spec.pcie_bytes_per_second
        intra_tp = (self.intra_count / intra_secs) if intra_secs > 0 else 0.0
        inter_tp = (self.inter_count / inter_secs) if inter_secs > 0 else 0.0
        return intra_tp, inter_tp


def _enumerate_root(graph: BipartiteGraph, index: TwoHopIndex, root: int,
                    p: int, q: int,
                    owner: np.ndarray,
                    resident: set[int] | None,
                    weights: np.ndarray,
                    report: PartitionRunReport,
                    engine: KernelBackend) -> None:
    """Exact per-root enumeration with residency + span tracking (the
    §VI walk behind :func:`run_partitioned_count`; plain per-root counts
    come from :func:`repro.core.bcl.count_root`)."""
    cmp_cell = [0]
    cr0 = graph.neighbors(LAYER_U, root)
    if len(cr0) < q:
        return
    if p == 1:
        report.total_count += comb(len(cr0), q)
        report.intra_count += comb(len(cr0), q)
        return
    cl0 = index.of(root)
    if len(cl0) < p - 1:
        return
    root_part = int(owner[root])

    def touch(u: int) -> None:
        if resident is not None and u not in resident:
            report.on_demand_transfer_words += int(weights[u])

    def rec(depth: int, cl: np.ndarray, cr: np.ndarray, spans: bool) -> None:
        for u in cl:
            u = int(u)
            touch(u)
            new_cr = engine.merge(cr, graph.neighbors(LAYER_U, u), cmp_cell)
            if len(new_cr) < q:
                continue
            child_spans = spans or int(owner[u]) != root_part
            if depth + 1 == p:
                found = comb(len(new_cr), q)
                report.total_count += found
                if child_spans:
                    report.inter_count += found
                else:
                    report.intra_count += found
                continue
            new_cl = engine.merge(cl, index.of(u), cmp_cell)
            if len(new_cl) < p - depth - 1:
                continue
            rec(depth + 1, new_cl, new_cr, child_spans)

    rec(1, cl0, cr0, False)
    report.comparisons += cmp_cell[0]


def run_partitioned_count(graph: BipartiteGraph, query: BicliqueQuery,
                          root_groups: list[list[int]],
                          owner: np.ndarray,
                          residency: list[set[int] | None],
                          initial_words: list[int],
                          weights: np.ndarray,
                          method: str,
                          backend: KernelBackend | str | None = None,
                          workers: int | None = None
                          ) -> PartitionRunReport:
    """Count over explicit root groups with explicit residency sets.

    The report's compute-time model is driven by the backend's comparison
    counts, so an uninstrumented backend (``"fast"``) leaves
    ``report.comparisons`` at zero and the derived compute/throughput
    figures reflect PCIe transfer time only — counts and transfer words
    stay exact either way.

    The (partition, root) pairs run through ``engine.map_shards``: one
    shard in one process, one per forked child on ``native`` with
    ``workers=N``.  Roots of different partitions may then execute
    concurrently, and every count and transfer-word field merges by
    exact integer sum, so the report is identical for any worker count.
    """
    engine = resolve_backend(backend, workers=workers)
    t0 = time.perf_counter()
    index = prepare_device_inputs(graph, query, LAYER_U).index
    report = PartitionRunReport(method=method, query=query,
                                num_partitions=len(root_groups))
    for gid in range(len(root_groups)):
        report.initial_transfer_words += int(initial_words[gid])
    tasks = [(gid, int(root))
             for gid, roots in enumerate(root_groups) for root in roots]

    def enumerate_chunk(idxs) -> PartitionRunReport:
        part = PartitionRunReport(method=method, query=query)
        for i in idxs:
            gid, root = tasks[i]
            _enumerate_root(graph, index, root, query.p, query.q,
                            owner, residency[gid], weights, part, engine)
        return part

    task_weights = np.asarray([float(weights[root]) for _, root in tasks],
                              dtype=np.float64)
    for _, part in engine.map_shards(enumerate_chunk, len(tasks),
                                     weights=task_weights):
        report.total_count += part.total_count
        report.intra_count += part.intra_count
        report.inter_count += part.inter_count
        report.comparisons += part.comparisons
        report.on_demand_transfer_words += part.on_demand_transfer_words
    report.wall_seconds = time.perf_counter() - t0
    return report


def build_root_index(graph: BipartiteGraph, q: int) -> TwoHopIndex:
    """The priority-filtered two-hop index per-root enumeration uses.

    The U-anchored index of
    :func:`repro.core.device_common.prepare_device_inputs` (it does not
    depend on p), identical to what :func:`run_partitioned_count` builds
    internally; exposed so long-lived holders (distributed serving
    workers counting the same root shard for many queries) can build it
    once per ``q``.
    """
    return prepare_device_inputs(graph, BicliqueQuery(1, q),
                                 LAYER_U).index


def count_roots(graph: BipartiteGraph, query: BicliqueQuery,
                roots, *, index: TwoHopIndex | None = None,
                backend: KernelBackend | str | None = None) -> int:
    """Exact biclique count anchored at ``roots`` only.

    The priority order charges every biclique to exactly one root, so
    summing :func:`count_roots` over any disjoint cover of the U layer
    reproduces the whole-graph count bit for bit — the merge rule the
    distributed partitioned-serving tier relies on.  ``index`` must be
    a :func:`build_root_index` product for the same ``(graph, q)``.
    """
    engine = resolve_backend(backend)
    if index is None:
        index = build_root_index(graph, query.q)
    return sum(count_root(graph, index, int(root), query.p, query.q,
                          engine)
               for root in roots)


def _owner_from_groups(n: int, groups: list[list[int]]) -> np.ndarray:
    owner = np.full(n, -1, dtype=np.int64)
    for gid, members in enumerate(groups):
        for v in members:
            owner[int(v)] = gid
    return owner


def run_bcpar(graph: BipartiteGraph, query: BicliqueQuery,
              budget_words: int,
              spec: DeviceSpec | None = None,
              backend: KernelBackend | str | None = None,
              workers: int | None = None
              ) -> tuple[PartitionRunReport, PartitionSet]:
    """Partition with BCPar and count; returns (report, partition set).

    See :func:`run_partitioned_count` for the fast-backend caveat on the
    report's comparison-driven timing figures.
    """
    full_index = build_two_hop_index(graph, LAYER_U, query.q)
    pset = bcpar_partition(graph, full_index, budget_words)
    groups = [p.roots for p in pset.partitions]
    owner = _owner_from_groups(graph.num_u, groups)
    residency: list[set[int] | None] = [set(p.closure) for p in pset.partitions]
    initial = [p.cost_words for p in pset.partitions]
    report = run_partitioned_count(graph, query, groups, owner, residency,
                                   initial, pset.weights, method="BCPar",
                                   backend=backend, workers=workers)
    return report, pset


def run_metis_like(graph: BipartiteGraph, query: BicliqueQuery,
                   num_parts: int,
                   spec: DeviceSpec | None = None,
                   backend: KernelBackend | str | None = None,
                   workers: int | None = None
                   ) -> tuple[PartitionRunReport, MetisLikeResult]:
    """Partition with the METIS-like baseline and count."""
    full_index = build_two_hop_index(graph, LAYER_U, query.q)
    degrees = graph.degrees(LAYER_U).astype(np.int64)
    weights = degrees + np.diff(full_index.offsets)
    mres = metis_like_partition(full_index, num_parts)
    groups = mres.parts()
    owner = mres.assignment
    residency: list[set[int] | None] = [set(g) for g in groups]
    initial = [int(weights[g].sum()) if len(g) else 0 for g in groups]
    report = run_partitioned_count(graph, query, groups, owner, residency,
                                   initial, weights, method="METIS-like",
                                   backend=backend, workers=workers)
    return report, mres

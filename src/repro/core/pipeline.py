"""End-to-end GBC pipeline: reorder -> HTB transform -> count.

This is the deployment path of the paper's full system, and the source of
the Table V component breakdown (reorder seconds, HTB transform seconds,
counting time).  Reordering is done once per graph and amortised across
(p, q) queries, which the appendix calls out explicitly — reuse is
supported by keeping the reordered graph in the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.counts import BicliqueQuery, DeviceRunResult
from repro.core.gbc import GBCOptions, gbc_count
from repro.engine.base import KernelBackend
from repro.gpu.device import DeviceSpec, rtx_3090
from repro.graph.bipartite import BipartiteGraph
from repro.reorder.base import Reordering, apply_reordering
from repro.reorder.border import border_reordering
from repro.reorder.degree import degree_reordering
from repro.reorder.gorder import gorder_reordering

__all__ = ["PipelineResult", "run_pipeline", "REORDER_METHODS"]

REORDER_METHODS = ("none", "degree", "gorder", "border")


@dataclass
class PipelineResult:
    """Everything produced by one full GBC pipeline run."""

    reorder_method: str
    reorder_seconds: float
    reordered_graph: BipartiteGraph
    reordering: Reordering | None
    result: DeviceRunResult

    @property
    def htb_transform_seconds(self) -> float:
        return self.result.breakdown.get("htb_transform_seconds", 0.0)

    @property
    def counting_seconds(self) -> float:
        """Simulated device counting time (Table V 'Counting' column)."""
        return self.result.device_seconds


def _make_reordering(graph: BipartiteGraph, method: str,
                     border_iterations: int | None) -> Reordering | None:
    if method == "none":
        return None
    if method == "degree":
        return degree_reordering(graph)
    if method == "gorder":
        return gorder_reordering(graph)
    if method == "border":
        reordering, _ = border_reordering(graph, iterations=border_iterations)
        return reordering
    raise ValueError(f"unknown reorder method {method!r}; "
                     f"expected one of {REORDER_METHODS}")


def run_pipeline(graph: BipartiteGraph, query: BicliqueQuery,
                 reorder: str = "border",
                 spec: DeviceSpec | None = None,
                 options: GBCOptions | None = None,
                 border_iterations: int | None = None,
                 reordered: BipartiteGraph | None = None,
                 backend: KernelBackend | str | None = None) -> PipelineResult:
    """Run reorder + HTB + GBC; pass ``reordered`` to reuse a prior layout.

    The count is invariant under reordering (the reordered graph is
    isomorphic); only the simulated execution cost changes — which is the
    entire point of Table III, and which only ``backend="sim"`` reports.
    """
    spec = spec or rtx_3090()
    if reordered is not None:
        reordering = None
        reorder_seconds = 0.0
        g = reordered
    else:
        t0 = time.perf_counter()
        reordering = _make_reordering(graph, reorder, border_iterations)
        g = apply_reordering(graph, reordering) if reordering else graph
        reorder_seconds = time.perf_counter() - t0
    result = gbc_count(g, query, spec=spec, options=options, backend=backend)
    return PipelineResult(
        reorder_method=reorder,
        reorder_seconds=reorder_seconds,
        reordered_graph=g,
        reordering=reordering,
        result=result,
    )

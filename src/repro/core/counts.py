"""Shared query/result types for the biclique counters.

Every algorithm (Basic, BCL, BCLP, GBL, GBC) takes a
:class:`BicliqueQuery` and returns a :class:`CountResult`; the GPU-model
algorithms return the :class:`DeviceRunResult` extension carrying the
simulated-device accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from repro.errors import QueryError
from repro.graph.bipartite import BipartiteGraph, LAYER_U, LAYER_V
from repro.graph.priority import select_layer
from repro.gpu.metrics import KernelMetrics

__all__ = ["BicliqueQuery", "CountResult", "DeviceRunResult", "comb",
           "anchored_view"]


@dataclass(frozen=True)
class BicliqueQuery:
    """A (p, q)-biclique counting query: p vertices from U, q from V."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise QueryError(f"p and q must be >= 1, got ({self.p}, {self.q})")

    def swapped(self) -> "BicliqueQuery":
        return BicliqueQuery(self.q, self.p)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.p},{self.q})"


@dataclass
class CountResult:
    """Outcome of one counting run."""

    algorithm: str
    query: BicliqueQuery
    count: int
    wall_seconds: float
    anchored_layer: str = LAYER_U
    breakdown: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    #: registry name of the kernel backend that executed the run, or
    #: ``"none"`` for a counter that runs no engine (the wedge-formula
    #: butterfly counter); every producer names it
    backend: str = field(kw_only=True)
    #: whether that backend collected live device metrics/timers —
    #: False means any simulated-time or metrics fields are all zero
    backend_instrumented: bool = field(kw_only=True)


@dataclass
class DeviceRunResult(CountResult):
    """A count produced on the simulated device, with its accounting."""

    metrics: KernelMetrics = field(default_factory=KernelMetrics)
    makespan_cycles: float = 0.0
    device_seconds: float = 0.0
    steals: int = 0
    peak_working_set_bytes: int = 0
    # per-root schedule inputs, kept so balancing strategies can be
    # re-evaluated without re-running the kernels (Table IV)
    per_root_cycles: list = field(default_factory=list)
    root_weights: list = field(default_factory=list)


def anchored_view(graph: BipartiteGraph, query: BicliqueQuery,
                  layer: str | None = None):
    """Pick the anchored layer (BCL's degree heuristic) and normalise.

    Returns ``(graph', p', q', anchored_layer)`` where the search always
    expands p' vertices on the U layer of ``graph'`` (the graph is swapped
    when anchoring on V).
    """
    chosen = layer or select_layer(graph, query.p, query.q)
    if chosen == LAYER_U:
        return graph, query.p, query.q, LAYER_U
    return graph.swapped(), query.q, query.p, LAYER_V

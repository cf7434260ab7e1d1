"""The method registry: every counter self-registers its capabilities.

Each counting module in :mod:`repro.core` registers a
:class:`MethodSpec` at import time — its entry point, which optional
keyword arguments it understands, what it can do (sessions? sharded
``par`` execution? instrumented device metrics?), and a *cost hook*
that predicts its headline seconds from :class:`CostSignals`.  The
registry is the single source of truth every dispatcher resolves
through: :func:`repro.plan.execute_plan` looks a method up here,
:func:`repro.bench.runner.run_method` exposes :func:`method_names` as
its ``METHODS`` tuple, the CLI builds its ``--method`` choices from it,
and :meth:`repro.service.scheduler.Scheduler.submit` validates request
methods against it at admission time.

Adding a counter is therefore one file: implement it, register a
``MethodSpec`` with a cost hook at the bottom of the module, and the
CLI, batch engine, bench matrix, serving scheduler, and ``method=auto``
planner all pick it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import UnknownMethodError

__all__ = [
    "ACCURACIES",
    "AUTO",
    "CostSignals",
    "MethodSpec",
    "approx_candidates",
    "auto_candidates",
    "ensure_accuracy",
    "ensure_known",
    "get_method",
    "method_names",
    "register_method",
]

#: the reserved method name that asks the planner to choose
AUTO = "auto"

#: the accuracy tiers every ``accuracy=`` seam accepts: ``"exact"``
#: (only exact counters; a deadline the planner cannot meet raises),
#: ``"approx"`` (the sampling tier answers, with error bars), and
#: ``"auto"`` (exact when it fits the deadline, approx otherwise)
ACCURACIES = ("exact", "approx", "auto")


def ensure_accuracy(accuracy: str) -> str:
    """Validate an ``accuracy=`` argument at an API boundary.

    Raises :class:`~repro.errors.QueryError` (via the import below) for
    anything outside :data:`ACCURACIES`; returns the value unchanged so
    boundaries can validate inline.
    """
    if accuracy not in ACCURACIES:
        from repro.errors import QueryError

        raise QueryError(f"accuracy must be one of {ACCURACIES}, "
                         f"got {accuracy!r}")
    return accuracy

# ---------------------------------------------------------------------------
# calibration constants for the cost hooks
#
# The probe (repro.core.estimate.sample_root_profile) measures *counted
# work* — merge invocations, merge comparisons, promising-root
# populations — which is deterministic for a fixed seed.  These
# constants convert counted work into predicted headline seconds; they
# were least-squares fitted against measured enumeration times on the
# Table II tiny stand-ins (fast backend), the prepare models against
# the single-wedge-pass prepare (see below), and
# ``benchmarks/test_plan_accuracy.py`` re-checks the resulting *choices*
# end to end on every stand-in.  Absolute accuracy is secondary to
# ranking accuracy, the same way the paper's SIMT cost model only needs
# method ratios to track reality.
# ---------------------------------------------------------------------------

#: per-merge-invocation kernel overhead (array setup dominates short
#: candidate lists, so calls — not comparisons — carry most of the cost)
SECONDS_PER_MERGE_CALL = 3.7e-6
#: marginal cost per merge comparison
SECONDS_PER_COMPARISON = 2.0e-8
#: priority prepare: per-wedge / per-vertex coefficients and intercept
#: of a linear model (one wedge pass + reorder + index) fitted by
#: non-negative least squares on relative error to the best-of-5
#: sessionless ``prepare_device_inputs`` times of the tiny and bench
#: stand-ins at (2,2), (2,3), (3,2) and (3,3) (2-vCPU host; the fit
#: leaves no per-edge cost beyond the wedge pass)
PRIORITY_PREP_WEDGE = 4.2e-8
PRIORITY_PREP_VERTEX = 6.5e-8
PRIORITY_PREP_BASE = 1.6e-4
#: id-order prepare (Basic): no wedge-mass reorder, one pass per root;
#: fitted the same way to the id-order index build
ID_PREP_BASE = 9.7e-5
ID_PREP_VERTEX = 5.4e-7
ID_PREP_WEDGE = 3.5e-8
#: floor below which prepare predictions are meaningless noise
PREP_FLOOR = 1.0e-4
#: per-root loop overhead of BCLP's per-root measurement pass
SECONDS_PER_ROOT_PROFILED = 2.0e-6
#: instrumented (sim) kernels cost this much more per operation
SIM_INSTRUMENT_FACTOR = 30.0
#: flat cost of forking the par worker pool
FORK_SECONDS = 0.08
#: the ``native`` frontier's per-merge-invocation cost: one numpy
#: dispatch serves a whole search level, so the per-call cost collapses
#: (only GBL and GBC run the frontier; the scalar counters run the same
#: merges on ``native`` as on ``fast`` and pay the constants above)
NATIVE_SECONDS_PER_MERGE_CALL = 4.5e-7
#: the ``native`` frontier's marginal cost per comparison
NATIVE_SECONDS_PER_COMPARISON = 7.0e-9


@dataclass(frozen=True)
class CostSignals:
    """Everything a cost hook may consult, all deterministically derived.

    Combines cheap graph statistics (:mod:`repro.graph.stats`), the
    Definition-2 degeneracy signals (promising-root populations and
    two-hop index sizes under the priority order *and* Basic's id
    order), the root-sampling probe
    (:func:`repro.core.estimate.sample_root_profile` — counted merge
    calls/comparisons, Horvitz-Thompson extrapolated), and the device
    spec the SIMT cost model (:mod:`repro.gpu.costmodel`) prices
    device-side predictions with.  No wall-clock measurements enter, so
    a fixed probe seed gives bit-identical predictions run to run.
    """

    p: int
    q: int
    backend: str                 #: engine the plan will run on
    workers: int | None          #: par worker processes (None = default)
    threads: int                 #: BCLP's modelled CPU thread count
    anchored_layer: str          #: layer the degree heuristic anchors on
    num_u: int                   #: original-orientation |U| (Basic's roots)
    num_v: int
    num_edges: int
    anchored_num_u: int          #: |U| of the anchored view
    anchored_num_v: int
    degree_skew: float           #: anchored-layer max/mean degree
    wedge_ops: float             #: wedge mass the anchored prepare pays
    wedge_ops_id: float          #: wedge mass Basic's id-index build pays
    population: int              #: promising roots (priority order)
    basic_population: int        #: promising roots (Basic's id order)
    comparisons: float           #: est. total merge comparisons (priority)
    basic_comparisons: float     #: est. total merge comparisons (id order)
    merge_calls: float           #: est. total merge invocations (priority)
    basic_merge_calls: float     #: est. total merge invocations (id order)
    max_root_comparisons: float  #: heaviest sampled root (skew signal)
    max_root_merge_calls: float
    mean_index_size: float       #: mean N2^q size over promising roots
    est_count: float             #: estimated (p, q)-biclique count
    device: Any = None           #: DeviceSpec for simulated-device pricing

    # -- building blocks shared by the cost hooks -----------------------
    def priority_prepare_seconds(self) -> float:
        """Predicted wedge pass + Definition-2 reorder + filtered index
        on the anchored view (what BCL/BCLP/GBL/GBC all pay)."""
        return max(PREP_FLOOR,
                   PRIORITY_PREP_BASE
                   + self.wedge_ops * PRIORITY_PREP_WEDGE
                   + (self.anchored_num_u + self.anchored_num_v)
                   * PRIORITY_PREP_VERTEX)

    def id_prepare_seconds(self) -> float:
        """Predicted id-ordered two-hop index build — Basic's whole
        preparation: no wedge-mass ranking, always the original U."""
        return max(PREP_FLOOR,
                   ID_PREP_BASE
                   + self.num_u * ID_PREP_VERTEX
                   + self.wedge_ops_id * ID_PREP_WEDGE)

    def enum_seconds(self, merge_calls: float, comparisons: float) -> float:
        """Predicted serial enumeration cost for counted work: one
        scalar merge per call, as ``fast`` (and ``native``, outside
        its frontier) runs it, inflated by instrumentation on ``sim``."""
        seconds = (merge_calls * SECONDS_PER_MERGE_CALL
                   + comparisons * SECONDS_PER_COMPARISON)
        if self.backend == "sim":
            seconds *= SIM_INSTRUMENT_FACTOR
        return seconds

    def frontier_seconds(self) -> float:
        """Predicted priority-order enumeration on the ``native``
        frontier, which batches each search level into one kernel call
        (what GBL's and GBC's cost hooks price on ``native``)."""
        return (self.merge_calls * NATIVE_SECONDS_PER_MERGE_CALL
                + self.comparisons * NATIVE_SECONDS_PER_COMPARISON)

    def max_root_seconds(self) -> float:
        """Predicted cost of the heaviest sampled root's search tree —
        the lower bound skew puts on any per-root parallel schedule."""
        return self.enum_seconds(self.max_root_merge_calls,
                                 self.max_root_comparisons)

    def sharded(self, enum: float) -> float:
        """Apply the par backend's fork overhead and worker split."""
        if self.backend != "par":
            return enum
        workers = self.workers if self.workers else 4
        return (max(enum / max(workers, 1), self.max_root_seconds())
                + FORK_SECONDS)


@dataclass(frozen=True)
class MethodSpec:
    """One registered counting method and its capabilities."""

    #: registry name ("Basic", "BCL", ..., "GBC-NH")
    name: str
    #: the entry point: ``runner(graph, query, **kwargs)``
    runner: Callable[..., Any]
    #: keyword arguments beyond (graph, query) the runner understands;
    #: execute_plan drops everything else instead of exploding
    accepts: tuple[str, ...] = ("backend", "workers", "session")
    #: can pull prepared state from a repro.query.GraphSession
    supports_sessions: bool = True
    #: can shard roots over the "par" backend's worker processes
    supports_partitioned: bool = True
    #: reports simulated device metrics / device_seconds on "sim"
    instrumented_metrics: bool = False
    #: honours layer= to pin the anchored layer
    supports_layer: bool = True
    #: prepared-state kinds the method consumes from a GraphSession
    #: ("wedges", "order", "two_hop", "two_hop_id", "htb"); the planner
    #: expands these into a plan's concrete ``prepared`` keys
    prepared_kinds: tuple[str, ...] = ("wedges", "order", "two_hop")
    #: a paper-ablation variant, excluded from method="auto" candidates
    ablation: bool = False
    #: a sampling-based estimator: excluded from the exact ``auto``
    #: ranking, ranked instead by the planner's approx tier
    #: (``accuracy="approx"`` / a deadline no exact plan can meet);
    #: results carry ``extras["ci95"]``-style error reporting
    approximate: bool = False
    #: predicted headline seconds from probe signals (None = never
    #: chosen automatically)
    cost: Callable[[CostSignals], float] | None = None
    #: factory for the method's default options (GBC-* variants)
    default_options: Callable[[], Any] | None = None
    #: one-line description shown by ``repro plan explain``
    summary: str = ""
    #: listing position (``method_names`` sorts on it, then on name) —
    #: keeps METHODS order stable whatever the import order
    order: int = 100


_REGISTRY: dict[str, MethodSpec] = {}
_CORE_MODULES = ("repro.core.basic", "repro.core.bcl", "repro.core.bclp",
                 "repro.core.gbl", "repro.core.gbc",
                 # the sampling estimator registers the "approx" tier
                 "repro.core.estimate")
#: set once every module in _CORE_MODULES has imported
_core_registered = False


def register_method(spec: MethodSpec, replace: bool = False) -> MethodSpec:
    """Register ``spec`` under its name; idempotent for identical specs."""
    if not replace and spec.name in _REGISTRY \
            and _REGISTRY[spec.name] is not spec:
        raise ValueError(f"method {spec.name!r} is already registered; "
                         f"pass replace=True to override")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    """Import the counter modules so their registrations have run.

    Runs the imports once per process: every ``Scheduler.submit``
    validates its method through here.  The flag is set only after all
    of them succeed, so a failed import is retried on the next call.
    """
    global _core_registered
    if _core_registered:
        return
    import importlib

    for module in _CORE_MODULES:
        importlib.import_module(module)
    _core_registered = True


def _ordered() -> list[MethodSpec]:
    _ensure_registered()
    return sorted(_REGISTRY.values(), key=lambda s: (s.order, s.name))


def method_names() -> tuple[str, ...]:
    """Every registered method name, in listing order."""
    return tuple(spec.name for spec in _ordered())


def get_method(name: str) -> MethodSpec:
    """The :class:`MethodSpec` registered under ``name``.

    Raises :class:`~repro.errors.UnknownMethodError` for unregistered
    names.  ``"auto"`` is deliberately *not* resolvable here — it is a
    planner directive, not a method; resolve it with
    :func:`repro.plan.plan_query` first.
    """
    _ensure_registered()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownMethodError(
            f"unknown method {name!r}; expected one of {method_names()}"
            + (f" or {AUTO!r}" if name != AUTO else
               " (resolve method='auto' through the planner first)"))
    return spec


def ensure_known(name: str, allow_auto: bool = False) -> str:
    """Validate a method name at an API boundary; returns it unchanged.

    With ``allow_auto=True`` the planner directive ``"auto"`` passes —
    the boundary that accepts it resolves it later.  Everything else
    must be registered, or :class:`~repro.errors.UnknownMethodError`
    names the offender and the valid choices.
    """
    if allow_auto and name == AUTO:
        return name
    get_method(name)
    return name


def auto_candidates() -> tuple[MethodSpec, ...]:
    """The methods ``method="auto"`` chooses between: every registered
    spec with a cost hook that is neither an ablation variant nor an
    approximate estimator (sampling never silently replaces an exact
    answer — the approx tier is opt-in via ``accuracy=`` or a deadline
    the exact candidates cannot meet)."""
    return tuple(spec for spec in _ordered()
                 if spec.cost is not None and not spec.ablation
                 and not spec.approximate)


def approx_candidates() -> tuple[MethodSpec, ...]:
    """The sampling tier's candidates: registered approximate specs
    with a cost hook, in listing order."""
    return tuple(spec for spec in _ordered()
                 if spec.cost is not None and spec.approximate)

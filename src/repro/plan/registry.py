"""The method registry: every counter self-registers its capabilities.

Each counting module in :mod:`repro.core` registers a
:class:`MethodSpec` at import time — its entry point, which optional
keyword arguments it understands, what it can do (sessions? sharded
``par`` execution? instrumented device metrics?), and the *rates* at
which a cold count of it clears the planner's work bound on each
engine.  The registry is the single source of truth every dispatcher
resolves through: :func:`repro.plan.execute_plan` looks a method up here,
:func:`repro.bench.runner.run_method` exposes :func:`method_names` as
its ``METHODS`` tuple, the CLI builds its ``--method`` choices from it,
and :meth:`repro.service.scheduler.Scheduler.submit` validates request
methods against it at admission time.

Adding a counter is therefore one file: implement it, register a
``MethodSpec`` at the bottom of the module, and the CLI, batch engine,
bench matrix and serving scheduler all pick it up; give it ``rates``
and deadlines price it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import UnknownMethodError

__all__ = [
    "ACCURACIES",
    "AUTO",
    "MethodSpec",
    "approx_candidates",
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
    #: a paper-ablation variant (Fig. 9), never priced
    ablation: bool = False
    #: a sampling-based estimator, served by the planner's approx tier
    #: (``accuracy="approx"`` / a deadline no exact plan can meet);
    #: results carry ``extras["ci95"]``-style error reporting
    approximate: bool = False
    #: work-bound units a cold count clears per second, per engine name
    #: (``par`` reads ``fast``'s); the planner prices a run as
    #: bound / rate.  None leaves the method unpriced: its price is
    #: 0.0, so a deadline always admits it
    rates: Mapping[str, float] | None = None
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


def approx_candidates() -> tuple[MethodSpec, ...]:
    """The sampling tier's candidates: registered approximate specs
    with rates, in listing order."""
    return tuple(spec for spec in _ordered()
                 if spec.rates is not None and spec.approximate)

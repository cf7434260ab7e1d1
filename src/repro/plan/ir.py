"""The plan IR: one :class:`CountPlan` fully describes a counting run.

A plan is what sits between "a (p, q) query arrived" and "a counter
ran": the chosen method, the execution engine (backend name + worker
count), the anchored-layer/reorder choice, the prepared state the run
requires from a :class:`repro.query.GraphSession`, and the planner's
price.  Plans are frozen and JSON-round-trippable
(:meth:`CountPlan.as_dict` / :meth:`CountPlan.from_dict`) so ``repro
plan explain`` output, benchmark artifacts, and tests can all pin them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.base import DEFAULT_BACKEND
from repro.errors import PlanError

__all__ = ["CountPlan"]


@dataclass(frozen=True)
class CountPlan:
    """An executable counting decision for one (graph, p, q) query."""

    #: resolved method name — never "auto"; the planner resolves that
    method: str
    p: int
    q: int
    #: kernel engine registry name ("sim" / "fast" / "native")
    backend: str = DEFAULT_BACKEND
    #: forked children for "native"'s root loop (None = one process)
    workers: int | None = None
    #: pinned anchored layer, or None for the method's degree heuristic
    layer: str | None = None
    #: prepared state the run needs, as ``kind:layer[:k]`` keys — e.g.
    #: ``("wedges:v", "order:v:3", "two_hop:v:3", "htb:v:3")``; a
    #: GraphSession warms exactly these before the batch runs
    prepared: tuple[str, ...] = ()
    #: priced seconds, work bound / rate (0.0 for explicit plans, for
    #: unpriced methods, and for ``auto``'s plan without a deadline)
    predicted_seconds: float = 0.0
    #: EWMA-measured seconds from the planner's CostLedger cell, when
    #: one had history for this (fingerprint, shape, method, backend)
    observed_seconds: float | None = None
    #: ledger-calibrated price (:meth:`repro.obs.ledger.CostLedger
    #: .calibrated`); when set, deadlines are checked against this
    #: instead
    calibrated_seconds: float | None = None
    #: how the plan was made: "explicit" or "auto"
    source: str = "explicit"
    #: one-line human rationale for ``repro plan explain``
    reason: str = ""
    #: the price's inputs (``bound``, ``rate``, ``population``, and for
    #: approx plans ``samples`` and ``predicted_rel_error``) for
    #: ``plan explain``; empty for unpriced plans
    signals: dict = field(default_factory=dict)
    #: approx-tier sample budget (None = the estimator's default; the
    #: planner sizes this from the cost model under a deadline)
    samples: int | None = None
    #: approx-tier estimator seed — pinned on the plan so a served
    #: estimate is bit-reproducible from its plan alone
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.method == "auto":
            raise PlanError("a CountPlan must carry a resolved method; "
                            "'auto' is a planner directive")
        if self.p < 1 or self.q < 1:
            raise PlanError(f"plan query sides must be >= 1, "
                            f"got ({self.p}, {self.q})")

    def matches(self, query) -> bool:
        """Whether ``query`` is the (p, q) shape this plan was made for."""
        return (self.p, self.q) == (query.p, query.q)

    # -- serialisation --------------------------------------------------
    def as_dict(self) -> dict:
        """A JSON-shaped dict that :meth:`from_dict` restores exactly."""
        return {
            "method": self.method,
            "p": self.p,
            "q": self.q,
            "backend": self.backend,
            "workers": self.workers,
            "layer": self.layer,
            "prepared": list(self.prepared),
            "predicted_seconds": self.predicted_seconds,
            "observed_seconds": self.observed_seconds,
            "calibrated_seconds": self.calibrated_seconds,
            "source": self.source,
            "reason": self.reason,
            "signals": dict(self.signals),
            "samples": self.samples,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CountPlan":
        """Rebuild a plan from :meth:`as_dict` output (round-trip safe)."""
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise PlanError(f"unknown CountPlan keys: {sorted(unknown)}")
        data = dict(data)
        if "prepared" in data:
            data["prepared"] = tuple(data["prepared"])
        return cls(**data)

"""The measured-cost ledger: what executions actually took, per cell.

The planner prices a run as a work bound over a rate fitted once, on
one host, across many graphs — blind to the graph's own constant and
to the host it runs on.  The ledger closes that loop:

* every real execution through
  :func:`repro.plan.execute.execute_plan` (which is the repo's single
  dispatch site, so the Scheduler batch path, ``batch_count``, the CLI
  and the bench runner all flow through it) appends its measured wall
  seconds to the cell keyed by **(graph fingerprint, p, q, method,
  backend)**;
* cells smooth their history with an EWMA, and track the
  observed/predicted ratio for executions that carried a price
  (``plan.predicted_seconds > 0``);
* a :class:`~repro.plan.planner.Planner` constructed with ``ledger=``
  calibrates each price through :meth:`CostLedger.calibrated` —
  ``predicted * ratio`` when the cell has a ratio, the measured seconds
  when it holds only unpriced runs — which is what deadline admission
  and the dynamic cutover read.  Counts never change — only prices do.

**Drift invalidates cells.**  Keys embed the graph fingerprint, so any
content change starts from scratch automatically; within one
fingerprint, a new observation whose ratio departs from the cell's
smoothed ratio by more than ``drift_band`` (in either direction —
e.g. another tenant saturating the host) resets the cell to the fresh
observation instead of slowly averaging two regimes.

The ledger is thread-safe (scheduler workers record concurrently) and
JSON-persistable via :meth:`CostLedger.save` / :meth:`CostLedger.load`,
so ``repro plan explain --ledger path.json --measure`` accumulates
across invocations.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

__all__ = ["CostLedger", "LedgerCell"]

#: persistence format version (bump on incompatible cell changes)
_FORMAT = 1


@dataclass
class LedgerCell:
    """Measured history of one (fingerprint, shape, method, backend)."""

    #: EWMA of measured wall seconds
    observed_seconds: float
    #: EWMA of observed/predicted — None until a predicted>0 execution
    ratio: float | None
    #: executions recorded into this cell (since the last drift reset)
    observations: int
    #: the most recent raw observation (unsmoothed)
    last_observed: float

    def as_dict(self) -> dict:
        return {"observed_seconds": self.observed_seconds,
                "ratio": self.ratio,
                "observations": self.observations,
                "last_observed": self.last_observed}

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerCell":
        return cls(observed_seconds=float(data["observed_seconds"]),
                   ratio=(None if data.get("ratio") is None
                          else float(data["ratio"])),
                   observations=int(data["observations"]),
                   last_observed=float(data["last_observed"]))


def _key(fingerprint: str, p: int, q: int, method: str,
         backend: str) -> str:
    return f"{fingerprint}|{int(p)}x{int(q)}|{method}|{backend}"


class CostLedger:
    """EWMA-smoothed measured costs, keyed per executable cell.

    ``alpha`` is the EWMA weight of the newest observation;
    ``drift_band`` the multiplicative ratio shift (either direction)
    that resets a cell instead of averaging into it.
    """

    def __init__(self, *, alpha: float = 0.3,
                 drift_band: float = 4.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if drift_band <= 1.0:
            raise ValueError(f"drift_band must be > 1, got {drift_band}")
        self.alpha = float(alpha)
        self.drift_band = float(drift_band)
        self.drift_resets = 0
        self._lock = threading.Lock()
        self._cells: dict[str, LedgerCell] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    # -- recording -----------------------------------------------------
    def record(self, fingerprint: str, p: int, q: int, method: str,
               backend: str, observed_seconds: float,
               predicted_seconds: float | None = None) -> LedgerCell:
        """Fold one measured execution into its cell.

        ``predicted_seconds`` is the price the run was planned with
        (omit it — or pass 0 — for explicit plans, which are unpriced);
        only priced runs update the calibration ratio.
        """
        observed = float(observed_seconds)
        predicted = (None if not predicted_seconds
                     else float(predicted_seconds))
        new_ratio = (observed / predicted
                     if predicted and predicted > 0 else None)
        key = _key(fingerprint, p, q, method, backend)
        with self._lock:
            cell = self._cells.get(key)
            if cell is not None and new_ratio is not None \
                    and cell.ratio is not None \
                    and not (cell.ratio / self.drift_band
                             <= new_ratio
                             <= cell.ratio * self.drift_band):
                # regime change (host contention, thermal state, ...):
                # averaging two regimes would misprice both — restart
                # from the fresh observation
                self.drift_resets += 1
                cell = None
            if cell is None:
                cell = LedgerCell(observed_seconds=observed,
                                  ratio=new_ratio, observations=1,
                                  last_observed=observed)
                self._cells[key] = cell
                return cell
            a = self.alpha
            cell.observed_seconds += a * (observed - cell.observed_seconds)
            if new_ratio is not None:
                cell.ratio = new_ratio if cell.ratio is None else \
                    cell.ratio + a * (new_ratio - cell.ratio)
            cell.observations += 1
            cell.last_observed = observed
            return cell

    def merge_snapshot(self, snapshot: dict) -> int:
        """Fold another ledger's :meth:`snapshot` into this one.

        The cross-process calibration path: distributed serving workers
        each keep a private ledger (they cannot share the router's
        through a pipe), and the router folds their snapshots into the
        shared ledger at harvest/close.  Unknown cells copy over;
        known cells EWMA-fold the incoming cell's smoothed state as one
        observation and pool the observation counts.  Returns the
        number of cells folded.
        """
        merged = 0
        for key, data in (snapshot or {}).get("cells", {}).items():
            other = LedgerCell.from_dict(data)
            with self._lock:
                mine = self._cells.get(key)
                if mine is None:
                    self._cells[key] = other
                else:
                    a = self.alpha
                    mine.observed_seconds += a * (other.observed_seconds
                                                  - mine.observed_seconds)
                    if other.ratio is not None:
                        mine.ratio = other.ratio if mine.ratio is None \
                            else mine.ratio + a * (other.ratio - mine.ratio)
                    mine.observations += other.observations
                    mine.last_observed = other.last_observed
            merged += 1
        return merged

    # -- lookup --------------------------------------------------------
    def lookup(self, fingerprint: str, p: int, q: int, method: str,
               backend: str) -> LedgerCell | None:
        """The cell for one executable, or None without history."""
        with self._lock:
            return self._cells.get(_key(fingerprint, p, q, method,
                                        backend))

    def calibrated(self, fingerprint: str, p: int, q: int, method: str,
                   backend: str,
                   predicted_seconds: float) -> float | None:
        """The one calibration rule: ``predicted * ratio`` when the cell
        has a ratio; its measured ``observed_seconds`` when it holds only
        unpriced (explicit) runs, which record no ratio; None without a
        cell."""
        cell = self.lookup(fingerprint, p, q, method, backend)
        if cell is None:
            return None
        if cell.ratio is None:
            return cell.observed_seconds
        return float(predicted_seconds) * cell.ratio

    def forget(self, fingerprint: str) -> int:
        """Drop every cell of one graph fingerprint; returns how many."""
        prefix = f"{fingerprint}|"
        with self._lock:
            stale = [k for k in self._cells if k.startswith(prefix)]
            for k in stale:
                del self._cells[k]
            return len(stale)

    def snapshot(self) -> dict:
        """JSON-serialisable view of every cell (artifact/inspection)."""
        with self._lock:
            return {"version": _FORMAT, "alpha": self.alpha,
                    "drift_band": self.drift_band,
                    "drift_resets": self.drift_resets,
                    "cells": {k: c.as_dict()
                              for k, c in sorted(self._cells.items())}}

    # -- persistence ---------------------------------------------------
    def save(self, path) -> int:
        """Write the ledger as JSON; returns the cell count."""
        snap = self.snapshot()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return len(snap["cells"])

    @classmethod
    def load(cls, path) -> "CostLedger":
        """Rebuild a ledger from :meth:`save` output."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        version = data.get("version")
        if version != _FORMAT:
            raise ValueError(f"unsupported ledger format {version!r} "
                             f"(this build reads version {_FORMAT})")
        ledger = cls(alpha=float(data.get("alpha", 0.3)),
                     drift_band=float(data.get("drift_band", 4.0)))
        ledger.drift_resets = int(data.get("drift_resets", 0))
        for key, cell in data.get("cells", {}).items():
            ledger._cells[key] = LedgerCell.from_dict(cell)
        return ledger

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CostLedger(cells={len(self)}, alpha={self.alpha}, "
                f"drift_band={self.drift_band})")

"""Observability: tracing spans, the measured-cost ledger, logging.

The counting stack has nine functional seams (see
``docs/ARCHITECTURE.md``); this package is the observability seam —
the one that watches all the others.  Three pillars, all
zero-dependency:

* :mod:`repro.obs.trace` — spans.  ``obs.span("plan.execute", ...)``
  context managers with an ambient thread-local current span, recorded
  into a :class:`~repro.obs.trace.TraceRecorder` and exported as JSONL.
  Off by default; when disabled every entry point degrades to a single
  module-attribute check, so the hot paths pay nothing.
* :mod:`repro.obs.ledger` — the :class:`~repro.obs.ledger.CostLedger`.
  Every real execution through :func:`repro.plan.execute.execute_plan`
  appends its measured wall seconds under (graph fingerprint, shape,
  method, backend); a :class:`~repro.plan.planner.Planner` given the
  ledger calibrates its prices by the observed/predicted ratio.
  Counts never change — only prices do.
* :mod:`repro.obs.log` — the ``logging.getLogger("repro")`` hierarchy
  (NullHandler by default; the CLI ``--verbose`` flag installs a
  stderr handler).
"""

from repro.obs.ledger import CostLedger, LedgerCell
from repro.obs.log import configure_logging, get_logger
from repro.obs.trace import (TraceRecorder, current_span, disable_tracing,
                             enable_tracing, event, span, tally_kernel,
                             tracing, tracing_enabled)

__all__ = [
    "CostLedger",
    "LedgerCell",
    "TraceRecorder",
    "configure_logging",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "event",
    "get_logger",
    "span",
    "tally_kernel",
    "tracing",
    "tracing_enabled",
]

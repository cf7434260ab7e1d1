"""Zero-dependency tracing spans with an ambient thread-local parent.

The span model is deliberately small:

* :func:`span` opens a timed span as a context manager.  Spans nest
  through a thread-local stack — whatever span is open on the current
  thread when a new one starts becomes its parent — so the scheduler's
  worker threads, the session's lazy builders and the kernel batch
  entry points all stitch into one tree without passing context
  objects through every call signature.
* :func:`event` records an instantaneous, zero-duration span (the
  scheduler's request-lifecycle markers: queued, expired, completed).
* :func:`tally_kernel` increments kernel-call counters on the nearest
  enclosing span — the kernel seam's batch entry points fire thousands
  of times per count, so they aggregate into their parent span instead
  of emitting one record each.  A forked shard collects its bumps
  under :class:`kernel_tallies` and the parent merges them with
  :func:`add_tallies`, so a sharded count tallies what a serial one
  does.

Tracing is **off by default**.  Disabled, :func:`span` returns a
module-level null singleton and :func:`event`/:func:`tally_kernel`
return after one module-attribute check, so the instrumented seams cost
nothing measurable (the <5µs per disabled span + tally bar in
``benchmarks/test_trace_overhead.py``).  :func:`enable_tracing`
installs a :class:`TraceRecorder`; :meth:`TraceRecorder.dump` writes
one JSON object per line (JSONL), which ``repro trace summarize``
renders as a per-span total/self-time tree via :func:`summarize`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

__all__ = ["Span", "TraceRecorder", "add_tallies", "current_span",
           "disable_tracing", "enable_tracing", "enabled", "event",
           "kernel_tallies", "load_records", "render_summary", "span",
           "summarize", "tally_kernel", "tracing", "tracing_enabled"]

#: module-global fast flag — the ONLY thing a disabled hot path reads
enabled = False

_recorder: "TraceRecorder | None" = None
_ids = itertools.count(1)


class _Ambient(threading.local):
    """Per-thread stack of open spans (the ambient parent chain)."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


_ambient = _Ambient()


class TraceRecorder:
    """Thread-safe collector of finished span/event records.

    Records are plain dicts (one JSON object per JSONL line)::

        {"name": "plan.execute", "kind": "span", "span_id": 7,
         "parent_id": 3, "thread": "repro-serve-0", "ts": 1754...,
         "dur_ms": 1.93, "attrs": {"method": "GBC", ...}}
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[dict] = []

    def record(self, rec: dict) -> None:
        with self._lock:
            self._records.append(rec)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def records(self) -> list[dict]:
        """A snapshot copy of everything recorded so far."""
        with self._lock:
            return list(self._records)

    def names(self) -> set[str]:
        """Distinct span/event names seen (seam-coverage checks)."""
        return {r["name"] for r in self.records}

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def dump(self, path) -> int:
        """Write every record as one JSONL line; returns the count."""
        records = self.records
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return len(records)


def load_records(path) -> list[dict]:
    """Read a :meth:`TraceRecorder.dump` JSONL file back."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


class Span:
    """One open, timed span.  Use through :func:`span`, not directly."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_t0", "_ts")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = next(_ids)
        self.parent_id: int | None = None
        self._t0 = 0.0
        self._ts = 0.0

    def annotate(self, **attrs) -> None:
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)

    def tally(self, key: str, n: int | float = 1) -> None:
        """Increment a numeric attribute (creating it at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + n

    def __enter__(self) -> "Span":
        stack = _ambient.stack
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_ms = (time.perf_counter() - self._t0) * 1e3
        stack = _ambient.stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:            # pragma: no cover - defensive
            stack.remove(self)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        rec = _recorder
        if rec is not None:
            rec.record({"name": self.name, "kind": "span",
                        "span_id": self.span_id,
                        "parent_id": self.parent_id,
                        "thread": threading.current_thread().name,
                        "ts": self._ts, "dur_ms": dur_ms,
                        "attrs": self.attrs})
        return False


class _NullSpan:
    """The disabled-path singleton: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass

    def tally(self, key: str, n: int | float = 1) -> None:
        pass


NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """A context manager timing one span (the null singleton when
    tracing is disabled, so the call costs one flag check)."""
    if not enabled:
        return NULL_SPAN
    return Span(name, attrs)


def event(name: str, **attrs) -> None:
    """Record an instantaneous marker (a zero-duration span)."""
    if not enabled:
        return
    rec = _recorder
    if rec is None:
        return
    stack = _ambient.stack
    rec.record({"name": name, "kind": "event",
                "span_id": next(_ids),
                "parent_id": stack[-1].span_id if stack else None,
                "thread": threading.current_thread().name,
                "ts": time.time(), "dur_ms": 0.0, "attrs": attrs})


def current_span():
    """The innermost open span on this thread (None when outside any,
    or when tracing is disabled)."""
    if not enabled:
        return None
    stack = _ambient.stack
    return stack[-1] if stack else None


def tally_kernel(kernel: str, calls: int = 1, items: int = 0,
                 bytes_touched: int = 0) -> None:
    """Aggregate one kernel batch call into the enclosing span.

    The :class:`~repro.engine.base.KernelBackend` batch entry points
    call this once per *batch* (one frontier, one recursion node) — far
    too hot for a record each, cheap enough for three counter bumps on
    whatever span is open (``kernel.batch`` during a counting run).
    """
    if not enabled:
        return
    stack = _ambient.stack
    if not stack:
        return
    sp = stack[-1]
    sp.tally("kernel_calls", calls)
    if items:
        sp.tally("kernel_items", items)
    if bytes_touched:
        sp.tally("kernel_bytes", bytes_touched)
    sp.tally(f"calls.{kernel}", calls)


class kernel_tallies:
    """Collect the :func:`tally_kernel` bumps made inside the block into
    a plain dict instead of the enclosing span.

    A forked child's span stack is a copy of its parent's, so bumps on
    it never reach the parent's trace; the child runs its work under
    this sink, ships the dict home beside its result, and the parent
    hands it to :func:`add_tallies`.  The sink itself is never
    recorded.
    """

    def __enter__(self) -> dict:
        self._sink = Span("kernel.tallies", {})
        _ambient.stack.append(self._sink)
        return self._sink.attrs

    def __exit__(self, *exc) -> bool:
        _ambient.stack.remove(self._sink)
        return False


def add_tallies(tallies: dict) -> None:
    """Add :class:`kernel_tallies` counts to the innermost open span."""
    sp = current_span()
    if sp is None:
        return
    for key, n in tallies.items():
        sp.tally(key, n)


def enable_tracing(recorder: TraceRecorder | None = None) -> TraceRecorder:
    """Turn tracing on globally; returns the active recorder."""
    global enabled, _recorder
    if recorder is None:
        recorder = TraceRecorder()
    _recorder = recorder
    enabled = True
    return recorder


def disable_tracing() -> TraceRecorder | None:
    """Turn tracing off; returns the recorder that was active."""
    global enabled, _recorder
    enabled = False
    rec, _recorder = _recorder, None
    return rec


def tracing_enabled() -> bool:
    return enabled


class tracing:
    """Scoped enable/disable: ``with tracing() as rec: ...``."""

    def __init__(self, recorder: TraceRecorder | None = None) -> None:
        self.recorder = recorder or TraceRecorder()

    def __enter__(self) -> TraceRecorder:
        enable_tracing(self.recorder)
        return self.recorder

    def __exit__(self, *exc) -> bool:
        disable_tracing()
        return False


# -- summarisation (the `repro trace summarize` view) -------------------

def summarize(records: list[dict]) -> list[dict]:
    """Aggregate span records into a per-path time tree.

    Spans with the same *name path* (their own name prefixed by every
    ancestor name) aggregate into one row with ``count``, ``total_ms``
    and ``self_ms`` (total minus the time inside child spans).  Events
    aggregate into count-only rows under their parent path.  Rows come
    back depth-first, siblings ordered by total time (events last), so
    printing them in order with ``depth``-based indentation renders the
    tree.
    """
    spans = [r for r in records if r.get("kind") != "event"]
    events = [r for r in records if r.get("kind") == "event"]
    by_id = {r["span_id"]: r for r in spans}
    child_ms: dict[int, float] = {}
    for r in spans:
        pid = r.get("parent_id")
        if pid in by_id:
            child_ms[pid] = child_ms.get(pid, 0.0) + float(r["dur_ms"])

    def path_of(r: dict) -> tuple[str, ...]:
        names: list[str] = []
        seen = set()
        cur: dict | None = r
        while cur is not None and cur["span_id"] not in seen:
            seen.add(cur["span_id"])
            names.append(cur["name"])
            cur = by_id.get(cur.get("parent_id"))
        return tuple(reversed(names))

    rows: dict[tuple, dict] = {}
    for r in spans:
        path = path_of(r)
        row = rows.setdefault(path, {
            "path": path, "name": path[-1], "depth": len(path) - 1,
            "kind": "span", "count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += float(r["dur_ms"])
        row["self_ms"] += (float(r["dur_ms"])
                           - child_ms.get(r["span_id"], 0.0))
    for r in events:
        parent = by_id.get(r.get("parent_id"))
        path = (path_of(parent) if parent else ()) + (r["name"],)
        row = rows.setdefault(path, {
            "path": path, "name": path[-1], "depth": len(path) - 1,
            "kind": "event", "count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1

    # depth-first order: under each parent, spans by total time
    # (largest first), then events, both name-tiebroken
    def sort_key(row: dict):
        key = []
        for depth in range(len(row["path"])):
            prefix = row["path"][:depth + 1]
            anchor = rows.get(prefix)
            total = anchor["total_ms"] if anchor else 0.0
            is_event = anchor is not None and anchor["kind"] == "event"
            key.append((is_event, -total, prefix[-1]))
        return key

    return sorted(rows.values(), key=sort_key)


def render_summary(rows: list[dict]) -> str:
    """Format :func:`summarize` rows as an indented text tree."""
    if not rows:
        return "(no spans recorded)"
    name_w = max(len("  " * r["depth"] + r["name"]) for r in rows)
    name_w = max(name_w, len("span"))
    lines = [f"{'span':<{name_w}} {'count':>7} {'total ms':>10} "
             f"{'self ms':>10}"]
    for r in rows:
        label = "  " * r["depth"] + r["name"]
        if r["kind"] == "event":
            lines.append(f"{label:<{name_w}} {r['count']:>7} "
                         f"{'-':>10} {'-':>10}")
        else:
            lines.append(f"{label:<{name_w}} {r['count']:>7} "
                         f"{r['total_ms']:>10.2f} {r['self_ms']:>10.2f}")
    return "\n".join(lines)

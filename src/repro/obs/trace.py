"""Span-based tracing: where a run spent its time, without touching it.

A :class:`Tracer` owns a flat list of :class:`Span` records (parent
links by id, not nesting — the trace envelope stays validatable by the
repo's ``$ref``-free JSON schema subset).  Instrumented code never talks
to a tracer directly; it calls the module-level helpers —

* :func:`span` — open a nested span on the *active* tracer (no-op
  context manager when tracing is off),
* :func:`annotate` / :func:`event` / :func:`add` — attach attributes,
  point-in-time events, or counter deltas to the current span,

so every call site is observation-only by construction: with no active
tracer each helper returns immediately, and the instrumented function's
data path is byte-for-byte the untraced one.  ``tests/test_obs.py``
counter-proves this by diffing ``StudyResult.to_json()`` bytes with
tracing on and off.

The active tracer is tracked per-thread (``threading.local``): the
scheduler's pool threads inherit nothing implicitly — worker-side
sections are aggregated by the parent's ``scheduler.run_tasks`` span
instead.

Envelope (``repro-trace/v1``, schema at ``docs/repro_trace.schema.json``)::

    {"schema": "repro-trace/v1", "name": ..., "attributes": {...},
     "wall_start_s": ..., "duration_s": ...,
     "spans": [{"id", "parent", "name", "start_s", "duration_s",
                "attributes", "counters", "events"}, ...],
     "metrics": {"counters": {...}, "histograms": {...}}}

Span timestamps are relative to the tracer's monotonic origin; the one
wall-clock value (``wall_start_s``) anchors the envelope for humans and
never enters any content address.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

# Module-object imports (resolved at call time) keep the
# cache -> obs -> runtime import triangle order-independent.
from ..runtime import scheduler as _scheduler
from . import clock, metrics

__all__ = [
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "add",
    "annotate",
    "current_tracer",
    "event",
    "span",
    "summarize_trace",
    "trace_counters",
    "write_trace",
]

TRACE_SCHEMA = "repro-trace/v1"

_ACTIVE = threading.local()


def _json_safe(value: Any) -> Any:
    """Coerce an attribute value to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


class Span:
    """One timed section: name, parent link, attributes, counters, events.

    Spans are created through :meth:`Tracer.span` and closed by the
    context manager; ``start_s``/``duration_s`` are monotonic offsets
    from the tracer's origin, so subtracting two spans' starts is always
    meaningful and wall-clock steps cannot corrupt a trace.
    """

    __slots__ = ("span_id", "parent_id", "name", "start_s", "duration_s",
                 "attributes", "counters", "events")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 start_s: float) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.duration_s: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.counters: Dict[str, float] = {}
        self.events: List[Dict[str, Any]] = []

    def annotate(self, **attributes: Any) -> None:
        for key, value in attributes.items():
            self.attributes[key] = _json_safe(value)

    def add(self, counter: str, value: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + float(value)

    def to_document(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s if self.duration_s is not None
            else 0.0,
            "attributes": dict(self.attributes),
            "counters": dict(self.counters),
            "events": list(self.events),
        }


class Tracer:
    """Collects spans for one traced operation (a CLI run, a job).

    Thread-safe: the span list is lock-guarded and the open-span stack is
    per-thread, so pool workers record their sections under the
    correct parent while serial code pays one lock per span.
    """

    def __init__(self, name: str, **attributes: Any) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = {}
        self.annotate(**attributes)
        self._lock = _scheduler.make_lock()
        self._spans: List[Span] = []
        self._stack = threading.local()
        self._origin = clock.monotonic()
        self._wall_start_s = clock.wall_time()
        self._duration_s: Optional[float] = None

    # -- span lifecycle ------------------------------------------------

    def _open_stack(self) -> List[Span]:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._open_stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a nested span; the parent is this thread's innermost
        open span (or the envelope root, parent id ``-1``)."""
        stack = self._open_stack()
        parent_id = stack[-1].span_id if stack else -1
        with self._lock:
            record = Span(len(self._spans), parent_id, name,
                          clock.monotonic() - self._origin)
            self._spans.append(record)
        record.annotate(**attributes)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record.duration_s = (clock.monotonic() - self._origin
                                 - record.start_s)

    # -- annotations ---------------------------------------------------

    def annotate(self, **attributes: Any) -> None:
        for key, value in attributes.items():
            self.attributes[key] = _json_safe(value)

    def event(self, name: str, **attributes: Any) -> None:
        record = {
            "name": name,
            "t_s": clock.monotonic() - self._origin,
            "attributes": {key: _json_safe(value)
                           for key, value in attributes.items()},
        }
        current = self.current_span()
        if current is not None:
            current.events.append(record)
        # Events outside any span are dropped rather than invent a
        # synthetic root: the envelope's spans list stays authoritative.

    # -- activation ----------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer the calling thread's active tracer."""
        stack = _active_stack()
        stack.append(self)
        try:
            yield self
        finally:
            stack.pop()
            self._duration_s = clock.monotonic() - self._origin

    # -- export --------------------------------------------------------

    def to_document(self) -> Dict[str, Any]:
        with self._lock:
            spans = [record.to_document() for record in self._spans]
        duration = self._duration_s
        if duration is None:
            duration = clock.monotonic() - self._origin
        return {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "attributes": dict(self.attributes),
            "wall_start_s": self._wall_start_s,
            "duration_s": duration,
            "spans": spans,
            "metrics": metrics.registry().snapshot(),
        }


def _active_stack() -> List[Tracer]:
    stack = getattr(_ACTIVE, "tracers", None)
    if stack is None:
        stack = []
        _ACTIVE.tracers = stack
    return stack


def current_tracer() -> Optional[Tracer]:
    """The calling thread's active tracer, or ``None`` (tracing off)."""
    stack = _active_stack()
    return stack[-1] if stack else None


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Optional[Span]]:
    """Open ``name`` on the active tracer; no-op when tracing is off."""
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attributes) as record:
        yield record


def annotate(**attributes: Any) -> None:
    """Attach attributes to the innermost open span, if any."""
    tracer = current_tracer()
    if tracer is None:
        return
    current = tracer.current_span()
    if current is not None:
        current.annotate(**attributes)


def event(name: str, **attributes: Any) -> None:
    """Record a point-in-time event on the innermost open span."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.event(name, **attributes)


def add(counter: str, value: float = 1.0) -> None:
    """Bump a counter on the innermost open span, if any."""
    tracer = current_tracer()
    if tracer is None:
        return
    current = tracer.current_span()
    if current is not None:
        current.add(counter, value)


# -- envelope utilities ------------------------------------------------

def write_trace(document: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Serialise a trace envelope to ``path`` (stable key order)."""
    target = Path(path)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def trace_counters(document: Dict[str, Any]) -> Dict[str, float]:
    """Sum every span's counters across the envelope.

    >>> doc = {"spans": [{"counters": {"cache.hits": 2}},
    ...                  {"counters": {"cache.hits": 1, "cache.misses": 1}}]}
    >>> trace_counters(doc) == {"cache.hits": 3.0, "cache.misses": 1.0}
    True
    """
    totals: Dict[str, float] = {}
    for record in document.get("spans", ()):
        for name, value in record.get("counters", {}).items():
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def summarize_trace(document: Dict[str, Any]) -> str:
    """A human-readable per-phase breakdown of a trace envelope."""
    lines = [
        f"trace: {document.get('name', '?')}  "
        f"({document.get('duration_s', 0.0):.3f}s total)",
    ]
    for key, value in sorted(document.get("attributes", {}).items()):
        lines.append(f"  {key} = {value}")
    total = float(document.get("duration_s", 0.0)) or None
    by_name: Dict[str, Dict[str, float]] = {}
    for record in document.get("spans", ()):
        entry = by_name.setdefault(
            record["name"], {"count": 0.0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += float(record.get("duration_s", 0.0))
    if by_name:
        lines.append("spans:")
        width = max(len(name) for name in by_name)
        for name, entry in sorted(by_name.items(),
                                  key=lambda item: -item[1]["seconds"]):
            share = (f"  {100.0 * entry['seconds'] / total:5.1f}%"
                     if total else "")
            lines.append(
                f"  {name.ljust(width)}  x{int(entry['count']):<4d} "
                f"{entry['seconds']:9.4f}s{share}")
    counters = trace_counters(document)
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            rendered = int(value) if float(value).is_integer() else value
            lines.append(f"  {name} = {rendered}")
    return "\n".join(lines)

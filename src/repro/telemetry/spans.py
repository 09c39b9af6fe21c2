"""Stages: the one clock, and the traces its spans form.

A *stage* is one timed section with a name and attributes.  On exit it
sets its :class:`Span`'s ``duration_s``, observes its histogram, and
joins the span open in this context (thread or asyncio task), so a
completed root is a *trace* — the tree of one request.  A trace opens
only on a :class:`Tracer` the caller holds, whose ring buffer keeps the
last ``max_traces`` roots; outside one a stage is timed and dropped.
Spans recorded in another process come home by :func:`collect` and
:func:`adopt`.

Durations come from :func:`time.perf_counter`, read nowhere else in the
package; the wall-clock ``start_time`` is for display.  Stdlib only;
thread-safe.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "adopt", "annotate", "collect", "stage", "tracing"]

_ids = itertools.count(1)
#: The innermost span open in this context, while a trace is.
_open: contextvars.ContextVar[Span | None] = contextvars.ContextVar("repro_open_span", default=None)


@dataclass
class Span:
    """One timed section; completed spans form a tree under their root."""

    name: str
    trace_id: int
    span_id: int
    start_time: float  # wall clock, for display only
    duration_s: float = 0.0
    attributes: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    status: str = "ok"

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one key/value to the span."""
        self.attributes[key] = value

    def to_dict(self) -> dict:
        """JSON-ready representation of this span subtree."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_time": self.start_time,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }


@contextmanager
def _stage(name: str, histogram, attributes: dict, tracer: Tracer | None):
    parent = _open.get()
    span_id = next(_ids)
    trace_id = span_id if parent is None else parent.trace_id
    span = Span(name, trace_id, span_id, time.time(), attributes=attributes)
    token = _open.set(span) if parent is not None or tracer is not None else None
    started = time.perf_counter()
    try:
        yield span
    except BaseException:
        span.status = "error"
        raise
    finally:
        span.duration_s = time.perf_counter() - started
        if token is not None:
            _open.reset(token)
        if parent is not None:
            parent.children.append(span)
        elif tracer is not None:
            with tracer._lock:
                tracer._traces.append(span)
    if histogram is not None:
        labels = {label: span.attributes[label] for label in histogram.labelnames}
        histogram.observe(span.duration_s, **labels)


def stage(name: str, histogram=None, **attributes: object):
    """Time a section; a context manager yielding its :class:`Span`.

    On a normal exit *histogram* observes ``duration_s``, labelled from
    the span's attributes as they stand then.  The span joins the span
    open in this context; with none open it is recorded nowhere.
    """
    return _stage(name, histogram, attributes, None)


def tracing() -> bool:
    """Whether a trace is being recorded in this context."""
    return _open.get() is not None


def annotate(**attributes: object) -> None:
    """Set *attributes* on the span open in this context, if any."""
    if (span := _open.get()) is not None:
        span.attributes.update(attributes)


@contextmanager
def collect():
    """Run a section under a holder span; yields the list of the spans
    completed directly under it, for :func:`adopt` in another process."""
    holder = Span("", 0, 0, 0.0)
    token = _open.set(holder)
    try:
        yield holder.children
    finally:
        _open.reset(token)


def adopt(spans: list[Span]) -> None:
    """Graft :func:`collect`-ed *spans* under the span open here, each
    subtree re-numbered into its trace: every process counts ids alone."""
    if (parent := _open.get()) is not None:
        parent.children.extend(spans)
        pending = list(spans)
        while pending:
            span = pending.pop()
            span.trace_id, span.span_id = parent.trace_id, next(_ids)
            pending.extend(span.children)


class Tracer:
    """Keeps the last *max_traces* completed traces opened on it."""

    def __init__(self, max_traces: int = 64) -> None:
        self._traces: deque[Span] = deque(maxlen=max_traces)
        self._lock = threading.Lock()

    def trace(self, name: str, histogram=None, **attributes: object):
        """:func:`stage`, except that with no span open the span is the
        root of a new trace, kept here."""
        return _stage(name, histogram, attributes, self)

    def traces(self, limit: int | None = None) -> list[dict]:
        """Completed traces, newest first, as JSON-ready dicts."""
        with self._lock:
            roots = list(self._traces)
        roots.reverse()
        if limit is not None:
            roots = roots[: max(0, limit)]
        return [root.to_dict() for root in roots]

"""Tracing: nested timed spans with a bounded ring buffer of traces.

A *span* is one timed section with a name and attributes; spans nest, so
a completed root span is a *trace* — a tree describing one request (a
``CBES.schedule`` call, a daemon job) end to end.  The tracer keeps only
the most recent ``max_traces`` completed roots in a ring buffer, so a
long-running daemon's memory stays bounded no matter how many requests
it serves.

Durations come from :func:`time.perf_counter` (monotonic, high
resolution); the wall-clock ``start_time`` is recorded only for display.
The active-span stack lives in a :mod:`contextvars` variable, so traces
started in different asyncio tasks or threads never interleave.

Stdlib only; thread-safe.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NullTracer"]

_ids = itertools.count(1)


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


class Tracer:
    """Records spans; keeps the last *max_traces* completed root spans."""

    def __init__(self, max_traces: int = 64) -> None:
        self._traces: deque[Span] = deque(maxlen=max_traces)
        self._lock = threading.Lock()
        self._active: contextvars.ContextVar[tuple[Span, ...]] = contextvars.ContextVar(
            "repro_active_spans", default=()
        )

    @contextmanager
    def trace(self, name: str, **attributes: object):
        """Time a section as a span nested under the current one (if any)."""
        stack = self._active.get()
        span = Span(
            name=name,
            trace_id=stack[0].trace_id if stack else next(_ids),
            span_id=next(_ids),
            start_time=time.time(),
            attributes=dict(attributes),
        )
        token = self._active.set(stack + (span,))
        started = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.duration_s = time.perf_counter() - started
            self._active.reset(token)
            if stack:
                stack[-1].children.append(span)
            else:
                with self._lock:
                    self._traces.append(span)

    def current_span(self) -> Span | None:
        """The innermost active span in this context, if any."""
        stack = self._active.get()
        return stack[-1] if stack else None

    def traces(self, limit: int | None = None) -> list[dict]:
        """Completed traces, newest first, as JSON-ready dicts."""
        with self._lock:
            roots = list(self._traces)
        roots.reverse()
        if limit is not None:
            roots = roots[: max(0, limit)]
        return [root.to_dict() for root in roots]


class _NullSpan:
    """Shared inert span for the disabled path."""

    __slots__ = ()

    def set_attribute(self, key: str, value: object) -> None:
        """No-op."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """API-compatible no-op tracer: the default when telemetry is off."""

    @contextmanager
    def trace(self, name: str, **attributes: object):
        """No-op span."""
        yield _NULL_SPAN

    def current_span(self) -> None:
        """Always ``None``."""
        return None

    def traces(self, limit: int | None = None) -> list[dict]:
        """Always empty."""
        return []

"""The benchmark's own in-memory tracer, and the statistics it reports with.

A span is (name, start, end, parent, request id) on the
``time.monotonic`` clock — on Linux the same system-wide clock the
daemon stamps ``created_at/started_at/finished_at`` with, so spans
derived from a job document line up with the client spans around it.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request_id: str | None = None
    index: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent of the next."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.monotonic(), parent=parent, request_id=request_id,
                    index=len(self.spans))
        self.spans.append(span)
        self._open.append(span.index)
        try:
            yield span
        finally:
            span.end = time.monotonic()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: Span) -> None:
        """A span measured elsewhere (the daemon's job timestamps) under *parent*."""
        self.spans.append(Span(name, start, end, parent=parent.index, index=len(self.spans)))

    def wrap(self, obj: object, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a version that records a span per call."""
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, traced)

    def dump(self, path: Path, **header) -> None:
        """Write every span (request ids inherited from the root) as JSON."""
        rows = []
        for span in self.spans:
            rid, up = span.request_id, span.parent
            while rid is None and up is not None:
                rid, up = self.spans[up].request_id, self.spans[up].parent
            rows.append(
                {"name": span.name, "start": span.start, "end": span.end,
                 "parent": span.parent, "request_id": rid}
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": rows}))


class NullTracer:
    """The untraced run's tracer: same surface, records nothing."""

    enabled = False
    spans: list[Span] = []

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        yield Span(name, 0.0)

    def add(self, name: str, start: float, end: float, parent: Span) -> None:
        pass

    def wrap(self, obj: object, method: str, name: str) -> None:
        pass


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus what child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.duration - covered(children.get(index, []), span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def durations(spans: list[Span], name: str) -> list[float]:
    return [span.duration for span in spans if span.name == name]


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def tail_pct(count: int) -> float:
    """The highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for pct, one_in in ((90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1000)):
        if count >= 10 * one_in:
            best = pct
    return best

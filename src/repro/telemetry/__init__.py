"""repro.telemetry — stdlib-only metrics and tracing for the CBES stack.

* :mod:`~repro.telemetry.registry` — `Counter`/`Gauge`/`Histogram`
  families behind a thread-safe :class:`MetricsRegistry`, which metrics
  leave as one :meth:`~MetricsRegistry.snapshot` document and enter by
  :meth:`~MetricsRegistry.absorb`.
* :mod:`~repro.telemetry.spans` — :func:`stage`, the one clock, and the
  :class:`Tracer` on which a trace of stages opens.
* :mod:`~repro.telemetry.export` — Prometheus text exposition.

Instrumented code asks for the *ambient* registry via
:func:`get_registry`: the one the current context (thread or asyncio
task) entered with :func:`use_registry`, else a no-op
:class:`NullRegistry`, so the hot path pays near-zero cost while
telemetry is off.  There is no process-global registry: a daemon's job
threads each enter their daemon's own, so two daemons in one process
never record into each other's.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from repro.telemetry.export import snapshot_to_prometheus
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.spans import Span, Tracer, adopt, annotate, collect, stage, tracing

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "Tracer",
    "adopt",
    "annotate",
    "collect",
    "enabled",
    "get_registry",
    "snapshot_to_prometheus",
    "stage",
    "tracing",
    "use_registry",
]

_ctx_registry: ContextVar[MetricsRegistry | NullRegistry] = ContextVar(
    "repro_telemetry_registry", default=NullRegistry()
)


def get_registry() -> MetricsRegistry | NullRegistry:
    """The ambient metrics registry (context-local, else the null one)."""
    return _ctx_registry.get()


@contextmanager
def use_registry(registry: MetricsRegistry | NullRegistry):
    """Make *registry* ambient for the current context (thread/task)."""
    token = _ctx_registry.set(registry)
    try:
        yield registry
    finally:
        _ctx_registry.reset(token)


def enabled() -> bool:
    """Whether the ambient registry actually records (is not the null one)."""
    return not isinstance(get_registry(), NullRegistry)

"""repro.telemetry — stdlib-only metrics and tracing for the CBES stack.

* :mod:`~repro.telemetry.registry` — `Counter`/`Gauge`/`Histogram`
  families behind a thread-safe :class:`MetricsRegistry`, which metrics
  leave as one :meth:`~MetricsRegistry.snapshot` document and enter by
  :meth:`~MetricsRegistry.absorb`.
* :mod:`~repro.telemetry.spans` — :func:`stage`, the one clock, and the
  :class:`Tracer` on which a trace of stages opens.
* :mod:`~repro.telemetry.export` — Prometheus text exposition.

Instrumented code asks for the *ambient* registry via
:func:`get_registry`: the context-local one (:func:`use_registry`, per
thread or asyncio task), else the process-global one
(:func:`set_registry`, what the daemon installs for its worker
threads), else a no-op :class:`NullRegistry`, so the hot path pays
near-zero cost while telemetry is off.
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
    "set_registry",
    "snapshot_to_prometheus",
    "stage",
    "tracing",
    "use_registry",
]

_NULL_REGISTRY = NullRegistry()
_global_registry: MetricsRegistry | NullRegistry = _NULL_REGISTRY
_ctx_registry: ContextVar[MetricsRegistry | NullRegistry | None] = ContextVar(
    "repro_telemetry_registry", default=None
)


def get_registry() -> MetricsRegistry | NullRegistry:
    """The ambient metrics registry (context-local, else global, else null)."""
    ctx = _ctx_registry.get()
    if ctx is not None:
        return ctx
    return _global_registry


def set_registry(registry: MetricsRegistry | NullRegistry | None) -> None:
    """Install *registry* as the process-global default (None resets to null)."""
    global _global_registry
    _global_registry = registry if registry is not None else _NULL_REGISTRY


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

"""repro.telemetry — stdlib-only metrics and tracing for the CBES stack.

The package answers "what is the estimator doing right now?" with three
pieces:

* :mod:`~repro.telemetry.registry` — `Counter`/`Gauge`/`Histogram`
  primitives behind a thread-safe :class:`MetricsRegistry`.  Metrics
  leave a registry as one document, :meth:`MetricsRegistry.snapshot`,
  and enter one by one rule, :meth:`MetricsRegistry.absorb`: that pair
  carries search-worker samples to the master and replica scrapes to
  the fleet router.
* :mod:`~repro.telemetry.spans` — a `trace()` context manager producing
  nested timed :class:`Span` trees, with a bounded ring buffer of
  completed traces.
* :mod:`~repro.telemetry.export` — Prometheus text exposition of a
  snapshot (the JSON form is the snapshot itself).

Instrumented code never holds a registry reference of its own; it asks
for the *ambient* one via :func:`get_registry` / :func:`get_tracer`.
By default that is a no-op (:class:`NullRegistry` / :class:`NullTracer`)
so the hot path pays near-zero cost; the daemon (or a test, via
:func:`use_registry`) installs a live registry to turn collection on.

Resolution order: the context-local value (set by :func:`use_registry`
/ :func:`use_tracer`, scoped to the current thread or asyncio task)
wins; otherwise the process-global default (set by :func:`set_registry`
/ :func:`set_tracer`, which is what the daemon uses so its worker
threads all feed one registry); otherwise the null implementation.
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
from repro.telemetry.spans import NullTracer, Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "enabled",
    "get_registry",
    "get_tracer",
    "set_registry",
    "set_tracer",
    "snapshot_to_prometheus",
    "use_registry",
    "use_tracer",
]

_NULL_REGISTRY = NullRegistry()
_NULL_TRACER = NullTracer()

_global_registry: MetricsRegistry | NullRegistry = _NULL_REGISTRY
_global_tracer: Tracer | NullTracer = _NULL_TRACER

_ctx_registry: ContextVar[MetricsRegistry | NullRegistry | None] = ContextVar(
    "repro_telemetry_registry", default=None
)
_ctx_tracer: ContextVar[Tracer | NullTracer | None] = ContextVar(
    "repro_telemetry_tracer", default=None
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


def get_tracer() -> Tracer | NullTracer:
    """The ambient tracer (context-local, else global, else null)."""
    ctx = _ctx_tracer.get()
    if ctx is not None:
        return ctx
    return _global_tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install *tracer* as the process-global default (None resets to null)."""
    global _global_tracer
    _global_tracer = tracer if tracer is not None else _NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer | NullTracer):
    """Make *tracer* ambient for the current context (thread/task)."""
    token = _ctx_tracer.set(tracer)
    try:
        yield tracer
    finally:
        _ctx_tracer.reset(token)


def enabled() -> bool:
    """Whether the ambient registry actually records (is not the null one)."""
    return not isinstance(get_registry(), NullRegistry)

"""Metric primitives: counters, gauges, histograms, and their registry.

Design constraints (why this is not just a dict of floats):

* **Thread-safe, cheap updates.**  The daemon's event loop, its job
  worker threads, and in-process schedulers all record concurrently.
  Updates go through a small pool of *striped* locks — a child metric is
  pinned to one stripe by the hash of its identity, so unrelated metrics
  rarely contend while one metric's read-modify-write stays atomic.
* **Deterministic output.**  :meth:`MetricsRegistry.snapshot` sorts
  metrics by name and samples by label values, so exports (and the tests
  that diff parallel-vs-serial aggregates) are byte-stable.
* **Cross-process aggregation.**  Metrics leave a registry in one form,
  the :meth:`MetricsRegistry.snapshot` document, and enter another by
  one rule, :meth:`MetricsRegistry.absorb`: values add, histogram
  buckets add per bound.  Search workers ship their private registry's
  snapshot home with each task; the fleet router absorbs its replicas'
  scrapes.  Adding is associative, so the aggregate is independent of
  the worker count and of how the fleet is partitioned.  Every
  histogram uses :data:`DEFAULT_BUCKETS`, so two documents always agree
  on the bucket layout.
* **Zero cost when disabled.**  :class:`NullRegistry` mirrors the whole
  API with shared no-op children; instrumented code never branches on
  "is telemetry on" — it just records into whatever registry is ambient.

Stdlib only; no numpy in this package.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterable

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
]


class MetricError(ValueError):
    """A metric was declared or used inconsistently."""


#: The bucket upper bounds (seconds) of every histogram: spans
#: sub-millisecond evaluation work through minute-long scheduling searches.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_STRIPES = 16


def _validate_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise MetricError(
            f"metric/label name {name!r} must be snake_case ([a-z][a-z0-9_]*)"
        )


def _number(name: str, value: object) -> float:
    """A sample value of a snapshot document (NaN and infinities included)."""
    if isinstance(value, bool) or not isinstance(value, int | float):
        raise MetricError(f"{name}: {value!r} is not a sample value")
    return float(value)


def _tally(name: str, value: object) -> int:
    """A histogram count of a snapshot document."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise MetricError(f"{name}: {value!r} is not a bucket count")
    return value


class _Family:
    """One named metric: a set of children keyed by label values."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], object] = {}
        self._resolved: dict[tuple[tuple[str, str], ...], object] = {}
        self._family_lock = threading.Lock()

    # -- label resolution ----------------------------------------------
    def labels(self, **labels: object):
        """The child metric for one concrete label-value assignment."""
        return self._resolve(labels)

    def _resolve(self, labels: dict[str, object]):
        """The child of *labels*: one lookup in :attr:`_resolved`, by
        ``tuple(labels.items())``, for an all-``str`` label set seen before
        (``1``, ``1.0`` and ``True`` are one key, not one value)."""
        key = tuple(labels.items())
        try:
            return self._resolved[key]
        except (KeyError, TypeError):  # TypeError: an unhashable label value
            if set(labels) != set(self.labelnames):
                raise MetricError(
                    f"{self.name}: expected labels {self.labelnames}, got {tuple(sorted(labels))}"
                ) from None
        child = self._child(tuple(str(labels[ln]) for ln in self.labelnames))
        if all(type(value) is str for value in labels.values()):
            self._resolved[key] = child
        return child

    def _child(self, values: tuple[str, ...]):
        child = self._children.get(values)
        if child is None:
            with self._family_lock:
                child = self._children.get(values)
                if child is None:
                    lock = self._registry._stripe_for(self.name, values)
                    child = self._make_child(lock)
                    self._children[values] = child
        return child

    def _make_child(self, lock: threading.Lock):
        raise NotImplementedError

    @staticmethod
    def _increment(name: str, sample: dict):
        """What one sample of a snapshot document adds to its child, checked."""
        raise NotImplementedError

    def _sorted_children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._family_lock:
            return sorted(self._children.items())

    def _label_dict(self, values: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, values, strict=True))


class _ValueChild:
    """One labelled value of a counter or a gauge."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def _add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _CounterChild(_ValueChild):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricError("counters can only increase")
        with self._lock:
            self._value += amount


class Counter(_Family):
    """A monotonically increasing count (name convention: ``*_total``)."""

    kind = "counter"

    def _make_child(self, lock: threading.Lock) -> _CounterChild:
        return _CounterChild(lock)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Increment the child selected by **labels** by *amount*."""
        self._resolve(labels).inc(amount)

    def samples(self) -> list[dict]:
        """JSON-ready samples, sorted by label values."""
        return [
            {"labels": self._label_dict(values), "value": child.value}
            for values, child in self._sorted_children()
        ]

    @staticmethod
    def _increment(name: str, sample: dict) -> float:
        value = _number(name, sample.get("value"))
        if not value >= 0:
            raise MetricError(f"{name}: counters can only increase")
        return value


class _GaugeChild(_ValueChild):
    __slots__ = ()

    def set(self, value: float) -> None:
        """Replace the gauge reading."""
        with self._lock:
            self._value = float(value)


class Gauge(_Family):
    """An instantaneous reading that can go up and down.

    A gauge may instead be declared with a *callback*: the registry
    evaluates it at snapshot time, so readings like "queue depth" or
    "snapshot age" are always current without an updater loop.
    """

    kind = "gauge"

    def __init__(self, registry, name, help, labelnames, callback=None):
        if callback is not None and labelnames:
            raise MetricError(f"{name}: callback gauges cannot have labels")
        super().__init__(registry, name, help, labelnames)
        self.callback = callback

    def _make_child(self, lock: threading.Lock) -> _GaugeChild:
        return _GaugeChild(lock)

    def set(self, value: float, **labels: object) -> None:
        """Set the child selected by **labels** to *value*."""
        self._resolve(labels).set(value)

    def samples(self) -> list[dict]:
        """JSON-ready samples (evaluating the callback if there is one)."""
        if self.callback is not None:
            try:
                value = float(self.callback())
            except Exception:  # noqa: BLE001 - a broken callback must not kill a scrape
                value = float("nan")
            return [{"labels": {}, "value": value}]
        return [
            {"labels": self._label_dict(values), "value": child.value}
            for values, child in self._sorted_children()
        ]

    @staticmethod
    def _increment(name: str, sample: dict) -> float:
        return _number(name, sample.get("value"))


class _HistogramChild:
    __slots__ = ("_lock", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.counts = [0] * (len(DEFAULT_BUCKETS) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its (non-cumulative) bucket."""
        i = bisect_left(DEFAULT_BUCKETS, value)
        with self._lock:
            self.counts[i] += 1
            self.sum += value
            self.count += 1

    def _add(self, increment: tuple[list[int], float, int]) -> None:
        counts, total, n = increment
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.sum += total
            self.count += n


class Histogram(_Family):
    """Fixed-bucket distribution (name convention: a unit suffix).

    The buckets are :data:`DEFAULT_BUCKETS`, upper bounds, ascending;
    observations land in the first bucket whose bound is >= the value
    (an implicit ``+Inf`` bucket catches the rest).  Exposition is
    cumulative, Prometheus-style.
    """

    kind = "histogram"

    def _make_child(self, lock: threading.Lock) -> _HistogramChild:
        return _HistogramChild(lock)

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the child selected by **labels**."""
        self._resolve(labels).observe(value)

    def samples(self) -> list[dict]:
        """JSON-ready samples with *cumulative* bucket counts."""
        out = []
        for values, child in self._sorted_children():
            with child._lock:
                counts = list(child.counts)
                total, running = child.sum, child.count
            cumulative: list[list[float]] = []
            acc = 0
            for bound, n in zip(DEFAULT_BUCKETS, counts, strict=False):
                acc += n
                cumulative.append([bound, acc])
            out.append(
                {
                    "labels": self._label_dict(values),
                    "buckets": cumulative,
                    "sum": total,
                    "count": running,
                }
            )
        return out

    @staticmethod
    def _increment(name: str, sample: dict) -> tuple[list[int], float, int]:
        """The sample's own (un-cumulated) bucket counts, ``sum`` and ``count``."""
        buckets = sample.get("buckets")
        if not isinstance(buckets, list) or [
            pair[0] if isinstance(pair, list) and len(pair) == 2 else None for pair in buckets
        ] != list(DEFAULT_BUCKETS):
            raise MetricError(f"{name}: the buckets are not DEFAULT_BUCKETS")
        cumulative = [_tally(name, n) for _, n in buckets] + [_tally(name, sample.get("count"))]
        counts = [b - a for a, b in zip([0, *cumulative], cumulative, strict=False)]
        if min(counts) < 0:
            raise MetricError(f"{name}: the bucket counts are not cumulative")
        return counts, _number(name, sample.get("sum")), cumulative[-1]


#: A snapshot family's ``type`` -> the family class that absorbs it.
_KINDS: dict[str, type[_Family]] = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


def _same_declaration(family: _Family, cls: type, labelnames: tuple[str, ...]) -> None:
    """Refuse to see *family* as another kind or with other labels."""
    if type(family) is not cls:
        raise MetricError(
            f"{family.name} is already declared as a {family.kind}, not a {cls.kind}"
        )
    if family.labelnames != labelnames:
        raise MetricError(f"{family.name} is already declared with labels {family.labelnames}")


def _parse_family(name: object, doc: object) -> tuple:
    """One family of a :meth:`MetricsRegistry.snapshot` document, checked:
    ``(class, name, help, labelnames, [(labelvalues, increment), ...])``."""
    if not (
        isinstance(name, str)
        and isinstance(doc, dict)
        and doc.get("type") in _KINDS
        and isinstance(doc.get("help"), str)
        and isinstance(doc.get("labelnames"), list)
        and all(isinstance(ln, str) for ln in doc["labelnames"])
        and isinstance(doc.get("samples"), list)
    ):
        raise MetricError(f"{name!r} is not a snapshot family {{type, help, labelnames, samples}}")
    cls, labelnames = _KINDS[doc["type"]], tuple(doc["labelnames"])
    for each in (name, *labelnames):
        _validate_name(each)
    rows = []
    for sample in doc["samples"]:
        labels = sample.get("labels") if isinstance(sample, dict) else None
        if not (
            isinstance(labels, dict)
            and set(labels) == set(labelnames)
            and all(isinstance(v, str) for v in labels.values())
        ):
            raise MetricError(f"{name}: a sample's labels are not {labelnames}")
        rows.append((tuple(labels[ln] for ln in labelnames), cls._increment(name, sample)))
    return cls, name, doc["help"], labelnames, rows


class MetricsRegistry:
    """A process-local collection of named metrics.

    Declaring a metric is idempotent: asking for an existing name
    returns the existing family (and validates that the kind and label
    names agree), so call sites can declare-and-use without coordination.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Family] = {}
        self._meta_lock = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(_STRIPES))

    def _stripe_for(self, name: str, labelvalues: tuple[str, ...]) -> threading.Lock:
        return self._stripes[hash((name, labelvalues)) % _STRIPES]

    # -- declaration ----------------------------------------------------
    def _declare(self, cls: type, name: str, help: str, labelnames, **extra):
        labelnames = tuple(labelnames)
        # A held name was validated when declared: declare-and-use sites
        # on a hot path pay one dict read, not the name checks and the lock.
        family = self._metrics.get(name)
        if family is None:
            _validate_name(name)
            for ln in labelnames:
                _validate_name(ln)
            with self._meta_lock:
                family = self._metrics.get(name)
                if family is None:
                    family = self._metrics[name] = cls(self, name, help, labelnames, **extra)
                    return family
        _same_declaration(family, cls, labelnames)
        return family

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        """Declare (or fetch) a counter family."""
        return self._declare(Counter, name, help, labelnames)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        """Declare (or fetch) a gauge family, optionally callback-backed."""
        return self._declare(Gauge, name, help, labelnames, callback=callback)

    def histogram(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Histogram:
        """Declare (or fetch) a histogram family over :data:`DEFAULT_BUCKETS`."""
        return self._declare(Histogram, name, help, labelnames)

    # -- the one way out and the one way in -----------------------------
    def snapshot(self) -> dict[str, dict]:
        """Deterministic JSON-ready dump: ``{name: {type, help, labelnames, samples}}``."""
        with self._meta_lock:
            families = sorted(self._metrics.items())
        return {
            name: {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "samples": family.samples(),
            }
            for name, family in families
        }

    def absorb(self, snapshot: dict) -> None:
        """Add a :meth:`snapshot` document, from any registry, into this one.

        Counters and gauges add ``value``; histograms add ``sum``,
        ``count`` and each bucket's own count.  A family this registry
        lacks is declared from the document's ``type``, ``help`` and
        ``labelnames``.  The whole document is checked first: one that is
        not what :meth:`snapshot` writes, or that contradicts a family
        declared here, raises :class:`MetricError` and changes nothing.
        """
        if not isinstance(snapshot, dict):
            raise MetricError("a metrics snapshot is an object of families")
        families = [_parse_family(name, doc) for name, doc in snapshot.items()]
        with self._meta_lock:
            for cls, name, _, labelnames, _ in families:
                held = self._metrics.get(name)
                if held is not None:
                    _same_declaration(held, cls, labelnames)
                    if getattr(held, "callback", None) is not None:
                        raise MetricError(f"{name} is a callback gauge; it reads its own value")
        for cls, name, help, labelnames, rows in families:
            family = self._declare(cls, name, help, labelnames)
            for values, increment in rows:
                family._child(values)._add(increment)


# -- the disabled path ---------------------------------------------------
class _NullChild:
    """Answers the whole child API with no-ops; shared singleton."""

    __slots__ = ()
    labelnames: tuple[str, ...] = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """No-op."""

    def set(self, value: float, **labels: object) -> None:
        """No-op."""

    def observe(self, value: float, **labels: object) -> None:
        """No-op."""

    def labels(self, **labels: object) -> "_NullChild":
        """No-op; returns itself so chained calls stay cheap."""
        return self


_NULL_CHILD = _NullChild()


class NullRegistry:
    """API-compatible no-op registry: the default when telemetry is off.

    Every declaration returns one shared no-op child, so instrumented
    code pays a dictionary-free method call at declaration sites and
    nothing at all in loops that batch their updates.
    """

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> _NullChild:
        """No-op counter."""
        return _NULL_CHILD

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> _NullChild:
        """No-op gauge."""
        return _NULL_CHILD

    def histogram(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> _NullChild:
        """No-op histogram."""
        return _NULL_CHILD

    def snapshot(self) -> dict[str, dict]:
        """Always empty."""
        return {}

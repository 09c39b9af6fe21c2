"""Small shared utilities used across the :mod:`repro` packages.

This module intentionally has no dependencies on other ``repro``
subpackages so that anything may import it without creating cycles.  It
is also dependency-free: the estimating service must run (and produce
identical seeded results) on hosts without numpy/scipy, so the RNG and
the statistics helpers here are pure python.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import Any

from repro._rng import Rng

__all__ = [
    "LazyExports",
    "check_fraction",
    "check_positive",
    "encode_json",
    "left_fold",
    "mean_and_ci95",
    "percent_error",
    "spawn_rng",
    "stable_hash",
    "write_atomic",
]

_COMPACT = json.JSONEncoder(separators=(",", ":"))


def left_fold(terms: Iterable[float]) -> float:
    """``((0.0 + t0) + t1) + ...``: a float sum in one association.

    Never builtin ``sum`` for floats whose bits matter: CPython >= 3.12
    compensates float sums, which would change results (stored
    profiles, energies, remap decisions) with the interpreter version.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


class LazyExports:
    """A package's public names, each imported from its submodule on first use.

    *table* maps a submodule (relative to *package*) to the names it
    exports.  The package's module ``__getattr__`` and ``__dir__``
    (PEP 562) delegate to :meth:`resolve` and :meth:`names`, so
    ``import repro.fleet.router`` loads the router and what it imports,
    not every sibling the package ``__init__`` would otherwise name.  A
    resolved name is cached in the package's globals; an unknown name
    raises ``AttributeError``, which lets ``from package import
    submodule`` fall through to the submodule import.
    """

    def __init__(self, package: str, table: Mapping[str, Sequence[str]]) -> None:
        self._package = package
        self._where = {name: f"{package}.{sub}" for sub, names in table.items() for name in names}

    def resolve(self, name: str) -> Any:
        """The package attribute *name*, importing its submodule if needed."""
        try:
            module = self._where[name]
        except KeyError:
            raise AttributeError(f"module {self._package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[self._package], name, value)
        return value

    def names(self) -> list[str]:
        """What ``dir(package)`` lists: its globals plus every export."""
        return sorted({*vars(sys.modules[self._package]), *self._where})


def encode_json(doc: object) -> bytes:
    """*doc* as compact UTF-8 JSON, by the C encoder (``json.dump`` is not).

    The one encoder of the journal, the snapshot, a job's stored result
    and every HTTP response, so bytes encoded once splice into the rest.
    """
    return _COMPACT.encode(doc).encode("utf-8")


def write_atomic(path: Path, text: str) -> None:
    """Replace *path* with *text* through a temp file and ``os.replace``.

    A reader, or a writer that dies midway, sees the old file or the new
    one, never a torn one.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def check_positive(value: float, name: str) -> float:
    """Validate that *value* is a finite, strictly positive number."""
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def check_fraction(value: float, name: str, *, closed_low: bool = True) -> float:
    """Validate that *value* lies in ``[0, 1]`` (or ``(0, 1]``).

    Parameters
    ----------
    value:
        Number to validate.
    name:
        Name used in the error message.
    closed_low:
        When False, zero is rejected (useful for availabilities that are
        used as divisors).
    """
    low_ok = value >= 0.0 if closed_low else value > 0.0
    if not (math.isfinite(value) and low_ok and value <= 1.0):
        bound = "[0, 1]" if closed_low else "(0, 1]"
        raise ValueError(f"{name} must be within {bound}, got {value!r}")
    return float(value)


def stable_hash(*parts: object) -> int:
    """Deterministic 63-bit hash of a tuple of simple values.

    ``hash()`` is salted per interpreter run for strings, so seeded
    experiments must not rely on it.  This uses FNV-1a over the repr of
    each part, which is stable across runs and platforms.
    """
    acc = 0xCBF29CE484222325
    for part in parts:
        for byte in repr(part).encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0x7FFFFFFFFFFFFFFF


def spawn_rng(seed: int, *parts: object) -> Rng:
    """Create an independent RNG stream derived from *seed* and a key.

    Every distinct ``(seed, parts...)`` combination yields a distinct,
    reproducible stream, so parallel or repeated experiments never share
    state accidentally.  The stream is a pure-python :class:`~repro._rng.Rng`,
    so seeded results are identical whether or not numpy is installed.
    """
    return Rng(seed & 0x7FFFFFFF, stable_hash(*parts))


# t-distribution 97.5th percentiles for df = 1..30; beyond that the
# Cornish-Fisher expansion below is accurate to ~1e-7.
_T_975 = (
    12.706204736432095, 4.302652729911275, 3.182446305284263, 2.7764451051977987,
    2.5705818366147395, 2.4469118487916806, 2.3646242510102993, 2.3060041350333704,
    2.2621571627409915, 2.2281388519649385, 2.200985160082949, 2.1788128296634177,
    2.160368656461013, 2.1447866879169273, 2.131449545559323, 2.1199052992210112,
    2.1098155778331806, 2.10092204024096, 2.093024054408263, 2.0859634472658364,
    2.0796138447276626, 2.073873067904015, 2.0686576104190406, 2.0638985616280205,
    2.059538552753294, 2.055529438642871, 2.0518305164802833, 2.048407141795244,
    2.0452296421327034, 2.042272456301238,
)


def _t_quantile_975(df: int) -> float:
    """97.5th percentile of Student's t with *df* degrees of freedom."""
    if df <= 30:
        return _T_975[df - 1]
    # Cornish-Fisher expansion of the t quantile about the normal
    # quantile z = Phi^-1(0.975) in powers of 1/df.
    z = 1.959963984540054
    z3, z5, z7 = z**3, z**5, z**7
    g1 = (z3 + z) / 4.0
    g2 = (5.0 * z5 + 16.0 * z3 + 3.0 * z) / 96.0
    g3 = (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / 384.0
    return z + g1 / df + g2 / df**2 + g3 / df**3


def mean_and_ci95(samples: Sequence[float] | Iterable[float]) -> tuple[float, float]:
    """Return ``(mean, half_width)`` of a 95 % t-confidence interval.

    For a single sample the half width is 0.  Matches the paper's
    reporting convention (mean ± 95 % CI over 5 or 100 runs).
    """
    values = [float(v) for v in samples]
    n = len(values)
    if n == 0:
        raise ValueError("mean_and_ci95 requires at least one sample")
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(var) / math.sqrt(n)
    if sem == 0.0:
        return mean, 0.0
    return mean, _t_quantile_975(n - 1) * sem


def percent_error(predicted: float, actual: float) -> float:
    """Absolute prediction error as a percentage of the actual value."""
    if actual == 0.0:
        raise ValueError("actual value must be nonzero")
    return abs(predicted - actual) / abs(actual) * 100.0

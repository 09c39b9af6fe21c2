"""Deterministic pure-python pseudo-random number generator.

Every seeded stream in :mod:`repro` flows through :class:`Rng` (via
:func:`repro._util.spawn_rng`).  Historically these were numpy
``Generator`` streams; the batch-evaluation work demoted numpy to an
optional ``[speed]`` extra, and a hard numpy dependency in the RNG would
have made every scheduler unusable without it.  More importantly, the
*determinism contract* — identical seeds produce identical mappings
whether or not the numpy fast path is installed — requires an engine
whose stream does not depend on which backend serves evaluations.

The generator is xoshiro256** (Blackman & Vigna), seeded through
SplitMix64 exactly as its authors recommend.  It is not numpy-stream
compatible: swapping the engine was a deliberate COMPAT break (the
second in this repo's history; see CHANGES.md), traded for an engine
that is dependency-free, picklable with its position, and identical on
every platform.

The draw-order contract is part of scheduler determinism: each
``random()`` consumes exactly one 64-bit word, ``integers``/``choice``
consume words via rejection sampling, and ``normal`` consumes two words
per Box-Muller pair (caching the spare).  Changing any of these changes
every seeded mapping in the test suite, so treat the word-consumption
pattern as frozen API.  The implementation may change under it, and has:
``_next`` reads and writes each state word once and ``_randbelow`` keeps
its rejection limit per ``n``, for the same words.
``tests/test_util.py::TestFrozenStream`` pins the stream to literals.
"""

from __future__ import annotations

import math

__all__ = ["Rng"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: 2**-53, the double-precision ulp scale used for uniform doubles.
_DOUBLE_UNIT = 1.0 / (1 << 53)
#: ``_randbelow``'s rejection limit per ``n``: the largest multiple of
#: ``n`` not above 2**64.  The ``n`` drawn from are pool, rank and
#: roster sizes, so the table stays small; past ``_MAX_LIMITS`` entries
#: a limit is computed per draw and not kept.
_LIMITS: dict[int, int] = {}
_MAX_LIMITS = 4096


def _splitmix64(state: int):
    """One SplitMix64 step: returns (next_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class Rng:
    """xoshiro256** generator with the draw API the repo's callers use.

    The surface mirrors the subset of ``numpy.random.Generator`` that
    the schedulers, workloads, and monitoring simulators relied on
    (``random``, ``integers``, ``choice``, ``uniform``, ``normal``,
    ``lognormal``, ``poisson``), returning plain floats/ints/lists so no
    caller needs an array library.  Instances pickle with their exact
    position, which is what lets a GA island's state round-trip through
    worker processes without perturbing its trajectory.
    """

    def __init__(self, *seed_material: int) -> None:
        if not seed_material:
            raise ValueError("Rng requires at least one integer of seed material")
        state = 0
        for part in seed_material:
            state = (state ^ (int(part) & _MASK64)) & _MASK64
            state, _ = _splitmix64(state)
        state, self._s0 = _splitmix64(state)
        state, self._s1 = _splitmix64(state)
        state, self._s2 = _splitmix64(state)
        state, self._s3 = _splitmix64(state)
        if not (self._s0 | self._s1 | self._s2 | self._s3):  # pragma: no cover
            self._s0 = 0x9E3779B97F4A7C15  # the all-zero state is absorbing
        #: Cached second Box-Muller deviate (None when no spare is held).
        self._gauss: float | None = None

    # -- core stream ----------------------------------------------------
    def _next(self) -> int:
        """The next raw 64-bit word of the stream."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        self._s0 = s0 ^ s3
        self._s1 = s1 ^ s2
        self._s2 = s2 ^ t
        self._s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64  # rotl(s3, 45)
        # rotl(x, 7) * 9: the one mask after the product is the rotation's too.
        return (((x << 7) | (x >> 57)) * 9) & _MASK64

    # -- uniform draws --------------------------------------------------
    def random(self, size: int | None = None):
        """Uniform double in ``[0, 1)``; a list of them when *size* is given."""
        if size is None:
            return (self._next() >> 11) * _DOUBLE_UNIT
        return [(self._next() >> 11) * _DOUBLE_UNIT for _ in range(size)]

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """Uniform double in ``[low, high)``."""
        if size is None:
            return low + (high - low) * ((self._next() >> 11) * _DOUBLE_UNIT)
        return [low + (high - low) * ((self._next() >> 11) * _DOUBLE_UNIT) for _ in range(size)]

    def _randbelow(self, n: int) -> int:
        """Unbiased integer in ``[0, n)`` by 64-bit rejection sampling."""
        limit = _LIMITS.get(n)
        if limit is None:
            if n <= 0:
                raise ValueError("high must be > 0")
            limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
            if len(_LIMITS) < _MAX_LIMITS:
                _LIMITS[n] = limit
        word = self._next()
        while word >= limit:
            word = self._next()
        return word % n

    def integers(self, high: int, size: int | None = None):
        """Integer(s) drawn uniformly from ``[0, high)``."""
        if size is None:
            return self._randbelow(high)
        return [self._randbelow(high) for _ in range(size)]

    def choice(self, n: int, size: int | None = None, replace: bool = True):
        """Indices drawn from ``range(n)``.

        With ``replace=False`` this is a partial Fisher–Yates shuffle:
        deterministic, unbiased, and O(n) — the populations here are
        node pools and GA rosters, never large.
        """
        if size is None:
            return self._randbelow(n)
        if size < 0:
            raise ValueError("size must be >= 0")
        if replace:
            return [self._randbelow(n) for _ in range(size)]
        if size > n:
            raise ValueError(f"cannot draw {size} distinct values from range({n})")
        if size == 2:  # the SA swap's pair: the two steps below, without the pool
            j = self._randbelow(n)
            k = 1 + self._randbelow(n - 1)
            return [j, 0 if k == j else k]
        pool = list(range(n))
        for i in range(size):
            j = i + self._randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:size]

    def permutation(self, n: int) -> list[int]:
        """A uniformly random permutation of ``range(n)``."""
        return self.choice(n, size=n, replace=False)

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle of *items*."""
        for i in range(len(items) - 1, 0, -1):
            j = self._randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    # -- non-uniform draws ----------------------------------------------
    def normal(self, loc: float = 0.0, scale: float = 1.0, size: int | None = None):
        """Gaussian deviate(s) via Box–Muller (polar-free, two words/pair)."""
        if size is None:
            return loc + scale * self._gauss_next()
        return [loc + scale * self._gauss_next() for _ in range(size)]

    def _gauss_next(self) -> float:
        spare = self._gauss
        if spare is not None:
            self._gauss = None
            return spare
        # Box-Muller on (0, 1] x [0, 1): u is flipped so log(u) is finite.
        u = 1.0 - (self._next() >> 11) * _DOUBLE_UNIT
        v = (self._next() >> 11) * _DOUBLE_UNIT
        radius = math.sqrt(-2.0 * math.log(u))
        theta = 2.0 * math.pi * v
        self._gauss = radius * math.sin(theta)
        return radius * math.cos(theta)

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0, size: int | None = None):
        """Log-normal deviate(s): ``exp(normal(mean, sigma))``."""
        if size is None:
            return math.exp(mean + sigma * self._gauss_next())
        return [math.exp(mean + sigma * self._gauss_next()) for _ in range(size)]

    def poisson(self, lam: float = 1.0) -> int:
        """Poisson count via Knuth's product method.

        Large rates split recursively (Poisson additivity), keeping the
        product above double underflow; the workload generators use
        single-digit rates, so the split path is rare.
        """
        if lam < 0.0:
            raise ValueError("lam must be >= 0")
        total = 0
        while lam > 30.0:
            half = lam / 2.0
            total += self.poisson(half)
            lam -= half
        threshold = math.exp(-lam)
        product = self.random()
        count = 0
        while product > threshold:
            count += 1
            product *= self.random()
        return total + count

    # -- pickling --------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "s": (self._s0, self._s1, self._s2, self._s3),
            "gauss": self._gauss,
        }

    def __setstate__(self, state: dict) -> None:
        self._s0, self._s1, self._s2, self._s3 = state["s"]
        self._gauss = state["gauss"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rng(state={self._s0:#x},{self._s1:#x},{self._s2:#x},{self._s3:#x})"

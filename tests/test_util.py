"""Tests for repro._util and repro._rng."""

import hashlib
import math
import struct

import pytest

from repro._rng import Rng
from repro._util import (
    check_fraction,
    check_positive,
    mean_and_ci95,
    percent_error,
    spawn_rng,
    stable_hash,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-2.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive(math.inf, "x")


class TestCheckFraction:
    def test_accepts_bounds(self):
        assert check_fraction(0.0, "f") == 0.0
        assert check_fraction(1.0, "f") == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_fraction(1.0001, "f")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_fraction(-0.1, "f")

    def test_open_low_rejects_zero(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "f", closed_low=False)

    def test_open_low_accepts_small(self):
        assert check_fraction(1e-9, "f", closed_low=False) == 1e-9


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_distinct_inputs_distinct_hashes(self):
        assert stable_hash("a") != stable_hash("b")

    def test_order_sensitive(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_nonnegative_63bit(self):
        h = stable_hash("anything", 42)
        assert 0 <= h < 2**63


class TestSpawnRng:
    def test_same_key_same_stream(self):
        a = spawn_rng(7, "x").normal(size=5)
        b = spawn_rng(7, "x").normal(size=5)
        assert a == b

    def test_different_keys_different_streams(self):
        a = spawn_rng(7, "x").normal(size=5)
        b = spawn_rng(7, "y").normal(size=5)
        assert a != b

    def test_different_seeds_different_streams(self):
        a = spawn_rng(7, "x").normal(size=5)
        b = spawn_rng(8, "x").normal(size=5)
        assert a != b


class TestRngChoice:
    @staticmethod
    def shuffled_prefix(rng, n: int, size: int) -> list[int]:
        """The partial Fisher-Yates shuffle ``choice`` documents, spelled out."""
        pool = list(range(n))
        for i in range(size):
            j = i + rng._randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:size]

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 128])
    def test_a_pair_is_the_shuffle_s_first_two_steps(self, n):
        """The pair an SA swap draws takes no pool, but the same words
        and the same values, and leaves the stream where the shuffle does."""
        for seed in range(200):
            fast, slow = spawn_rng(seed, "pair"), spawn_rng(seed, "pair")
            assert fast.choice(n, 2, replace=False) == self.shuffled_prefix(slow, n, 2)
            assert fast.random() == slow.random()

    def test_a_pair_from_fewer_than_two_is_refused(self):
        with pytest.raises(ValueError, match="cannot draw 2 distinct values"):
            spawn_rng(1, "pair").choice(1, 2, replace=False)


class TestFrozenStream:
    """The word-consumption pattern of :class:`Rng` is frozen API: every
    seeded mapping in the suite rests on it.  These literals were read off
    the engine; an implementation change must leave every one in place."""

    def test_first_words(self):
        rng = Rng(1, 2, 3)
        assert [rng._next() for _ in range(8)] == [
            0x8E93D82D4E3FA1E4, 0xB1DD22B310B34E81, 0x77DCB29F993CA879, 0xB95DDEC24D619819,
            0x29D7EDAD1B92D124, 0x6B3CD3748C632051, 0xACE181E3490BF432, 0xA51C3F4BC56290FA,
        ]

    def test_randbelow(self):
        """50 draws each below 1..300, then below 2**63 + 1, where about
        half the words are rejected."""
        rng = Rng(1, 2, 3)
        digest = hashlib.sha256()
        for n in [*range(1, 301), (1 << 63) + 1]:
            for _ in range(50):
                digest.update(rng._randbelow(n).to_bytes(8, "little"))
        assert digest.hexdigest() == (
            "eafc410cb5186bffd85007c17a76b7a6ff52611587fd1949fa12a5a07abf7599"
        )

    def test_random(self):
        rng = Rng(1, 2, 3)
        values = struct.pack("<1000d", *(rng.random() for _ in range(1000)))
        assert hashlib.sha256(values).hexdigest() == (
            "6cc49e2b31e464db444f447b8e228f012ec39cbff401a2efcc61ad9395e7a276"
        )

    @pytest.mark.parametrize("n", [0, -1])
    def test_an_empty_range_is_refused(self, n):
        rng = Rng(1, 2, 3)
        rng._randbelow(5)
        for _ in range(2):  # the second ask finds no cached limit either
            with pytest.raises(ValueError, match="high must be > 0"):
                rng._randbelow(n)


class TestMeanAndCi95:
    def test_single_sample_zero_ci(self):
        mean, ci = mean_and_ci95([3.0])
        assert mean == 3.0
        assert ci == 0.0

    def test_constant_samples_zero_ci(self):
        mean, ci = mean_and_ci95([2.0, 2.0, 2.0])
        assert mean == 2.0
        assert ci == 0.0

    def test_known_values(self):
        # For n=5 samples of std 1, the 95% t half-width is
        # t(0.975, 4) * 1/sqrt(5) = 2.776 * 0.4472 = 1.2416...
        samples = [0.0, 1.0, 2.0, 3.0, 4.0]  # std (ddof=1) = sqrt(2.5)
        mean, ci = mean_and_ci95(samples)
        assert mean == 2.0
        expected = 2.7764451 * math.sqrt(2.5) / math.sqrt(5)
        assert ci == pytest.approx(expected, rel=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_and_ci95([])

    def test_mean_in_interval(self):
        rng = spawn_rng(0, "ci95")
        samples = rng.normal(10.0, 1.0, size=50)
        mean, ci = mean_and_ci95(samples)
        assert mean - ci < 10.0 < mean + ci  # true mean covered (usually)


class TestPercentError:
    def test_exact_is_zero(self):
        assert percent_error(5.0, 5.0) == 0.0

    def test_symmetric_in_magnitude(self):
        assert percent_error(11.0, 10.0) == pytest.approx(10.0)
        assert percent_error(9.0, 10.0) == pytest.approx(10.0)

    def test_zero_actual_raises(self):
        with pytest.raises(ValueError):
            percent_error(1.0, 0.0)

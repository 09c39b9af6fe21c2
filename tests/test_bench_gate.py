"""Tests for the paired ratio rule every bench-guard timing gate is judged by.

``benchmarks/_gate.py``'s :meth:`GateReport.paired` is driven here with
fake passes that return fixed costs, so each verdict, pair count and
call order is exact.
"""

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from _gate import PAIR_BATCH, PAIR_BUDGET, GateReport  # noqa: E402


def constant(cost: float, calls: list | None = None, name: str = ""):
    """A pass that always costs *cost*, logging *name* into *calls*."""

    def run() -> float:
        if calls is not None:
            calls.append(name)
        return cost

    return run


def cycling(costs):
    """A pass whose successive calls cost *costs* round and round."""
    costs = itertools.cycle(costs)
    return lambda: next(costs)


class TestPairedRatio:
    def test_a_clear_pass_resolves_at_the_minimum_pair_count(self):
        report = GateReport("fake")
        paired = report.paired("r", constant(1.0), constant(2.0), 1.0, "lower")
        assert paired.passed
        assert paired.ratio == 0.5
        assert paired.pairs == 2 * PAIR_BATCH

    @pytest.mark.parametrize(
        ("numerator", "limit", "better"),
        [(3.0, 1.0, "lower"), (0.9, 0.95, "higher")],
    )
    def test_a_clear_fail_fails(self, numerator, limit, better):
        report = GateReport("fake")
        paired = report.paired("r", constant(numerator), constant(1.0), limit, better)
        assert not paired.passed
        assert paired.ratio == numerator
        assert paired.pairs == 2 * PAIR_BATCH

    def test_a_limit_on_the_median_itself_passes(self):
        paired = GateReport("fake").paired("r", constant(1.5), constant(1.0), 1.5, "lower")
        assert paired.passed
        assert paired.pairs == 2 * PAIR_BATCH

    @pytest.mark.parametrize(("limit", "passed"), [(1.0, False), (1.05, True)])
    def test_a_straddling_ratio_draws_the_budget_and_is_judged_on_its_median(
        self, limit, passed
    ):
        # Every other pair reads 0.95, the rest 1.1: the interval holds
        # both whatever the count, so it never clears the limit.
        paired = GateReport("fake").paired(
            "r", cycling([0.95, 1.1]), constant(1.0), limit, "lower"
        )
        assert paired.pairs == PAIR_BUDGET
        assert (paired.low, paired.high) == (0.95, 1.1)
        assert paired.ratio == pytest.approx(1.025)
        assert paired.passed is passed

    def test_the_order_alternates_pair_by_pair(self):
        calls: list[str] = []
        paired = GateReport("fake").paired(
            "r", constant(1.0, calls, "num"), constant(2.0, calls, "den"), 1.0, "lower"
        )
        expected = [["num", "den"], ["den", "num"]] * (paired.pairs // 2)
        assert calls == list(itertools.chain.from_iterable(expected))

    def test_median_low_high_and_pairs_land_in_metrics(self):
        report = GateReport("fake")
        paired = report.paired(
            "move_ratio", cycling([1.0, 2.0, 3.0, 4.0]), constant(4.0), 2.0, "lower"
        )
        assert report.metrics == {
            "move_ratio": round(paired.ratio, 4),
            "move_ratio_low": round(paired.low, 4),
            "move_ratio_high": round(paired.high, 4),
            "move_ratio_pairs": paired.pairs,
        }
        assert paired.low <= paired.ratio <= paired.high
        assert paired.denominator == 4.0

    def test_each_pass_reports_its_own_median(self):
        paired = GateReport("fake").paired(
            "r", cycling([2.0, 2.0, 9.0]), cycling([1.0, 4.0]), 10.0, "lower"
        )
        assert paired.numerator == 2.0
        assert paired.denominator == pytest.approx(2.5)

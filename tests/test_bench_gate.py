"""Tests for the two rules every bench-guard gate is judged by.

``benchmarks/_gate.py``'s :meth:`GateReport.paired` is driven here with
fake passes that return fixed costs, so each verdict, pair count and
call order is exact; :meth:`GateReport.count` against committed
baselines written to a scratch directory; and ``tools/bench_trend.py``
on a throwaway git repository.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import _gate  # noqa: E402
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
        paired = report.paired("r", constant(1.0), constant(2.0), 1.0, "lower", "why")
        assert paired.passed
        assert paired.ratio == 0.5
        assert paired.pairs == 2 * PAIR_BATCH

    @pytest.mark.parametrize(
        ("numerator", "limit", "better"),
        [(3.0, 1.0, "lower"), (0.9, 0.95, "higher")],
    )
    def test_a_clear_fail_fails(self, numerator, limit, better):
        report = GateReport("fake")
        paired = report.paired("r", constant(numerator), constant(1.0), limit, better, "why")
        assert not paired.passed
        assert paired.ratio == numerator
        assert paired.pairs == 2 * PAIR_BATCH

    def test_a_limit_on_the_median_itself_passes(self):
        paired = GateReport("fake").paired("r", constant(1.5), constant(1.0), 1.5, "lower", "why")
        assert paired.passed
        assert paired.pairs == 2 * PAIR_BATCH

    @pytest.mark.parametrize(("limit", "passed"), [(1.0, False), (1.05, True)])
    def test_a_straddling_ratio_draws_the_budget_and_is_judged_on_its_median(
        self, limit, passed
    ):
        # Every other pair reads 0.95, the rest 1.1: the interval holds
        # both whatever the count, so it never clears the limit.
        paired = GateReport("fake").paired(
            "r", cycling([0.95, 1.1]), constant(1.0), limit, "lower", "why"
        )
        assert paired.pairs == PAIR_BUDGET
        assert (paired.low, paired.high) == (0.95, 1.1)
        assert paired.ratio == pytest.approx(1.025)
        assert paired.passed is passed

    def test_the_order_alternates_pair_by_pair(self):
        calls: list[str] = []
        paired = GateReport("fake").paired(
            "r", constant(1.0, calls, "num"), constant(2.0, calls, "den"), 1.0, "lower", "why"
        )
        expected = [["num", "den"], ["den", "num"]] * (paired.pairs // 2)
        assert calls == list(itertools.chain.from_iterable(expected))

    def test_median_low_high_and_pairs_land_in_metrics(self):
        report = GateReport("fake")
        paired = report.paired(
            "move_ratio", cycling([1.0, 2.0, 3.0, 4.0]), constant(4.0), 2.0, "lower", "why"
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
            "r", cycling([2.0, 2.0, 9.0]), cycling([1.0, 4.0]), 10.0, "lower", "why"
        )
        assert paired.numerator == 2.0
        assert paired.denominator == pytest.approx(2.5)

    def test_the_verdict_is_a_gate_under_its_key_and_a_failure_names_the_limit(self, capsys):
        report = GateReport("fake")
        report.paired("move_ratio", constant(3.0), constant(1.0), 1.6, "lower", "the loop costs")
        assert [g["name"] for g in report.gates] == ["move_ratio"]
        assert report.finish() == 1
        out = capsys.readouterr().out
        assert (
            "GATE fake/move_ratio: FAIL — 3.000 [3.000, 3.000] over 20 pairs (limit <= 1.6): "
            "the loop costs" in out
        )

    def test_no_reason_reports_the_draw_without_a_gate(self):
        report = GateReport("fake")
        report.paired("speedup", constant(1.0), constant(1.0), 10.0, "higher", None)
        assert report.gates == [] and report.passed
        assert report.paired_keys == ["speedup"]


@pytest.fixture
def committed(tmp_path, monkeypatch):
    """Write ``BENCH_fake.json`` as a committed baseline of *metrics*."""
    monkeypatch.setattr(_gate, "BASELINE_DIR", tmp_path)
    monkeypatch.delenv("REPRO_BENCH_JSON_DIR", raising=False)

    def write(metrics: dict, mode: str = "quick") -> Path:
        path = tmp_path / "BENCH_fake.json"
        path.write_text(json.dumps({"bench": "fake", "mode": mode, "metrics": metrics}))
        return path

    return write


class TestCountRule:
    def test_an_equal_count_passes(self, committed, capsys):
        committed({"evaluations": 1041, "messages_priced_per_move": 27.095617529880478})
        report = GateReport("fake", mode="quick")
        report.count("evaluations", 1041)
        report.count("messages_priced_per_move", 27.095617529880478)
        report.metric("serial_s", 0.5)
        assert report.finish() == 0
        assert [g["name"] for g in report.gates] == ["evaluations", "messages_priced_per_move"]
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
        assert rows["evaluations"] == ["1041", "==", "1041"]
        assert rows["serial_s"] == ["0.5", "-"]  # a timing beside its (absent) committed value

    def test_a_changed_count_fails_and_names_both_values(self, committed, capsys):
        committed({"round_journal_writes": 2})
        report = GateReport("fake", mode="quick")
        report.count("round_journal_writes", 64)
        assert report.finish() == 1
        line = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("GATE")
        )
        assert line.startswith("GATE fake/round_journal_writes: FAIL — ")
        assert "round_journal_writes = 64, committed 2" in line

    @pytest.mark.parametrize("baseline", [None, {"other": 1}, "full"])
    def test_a_missing_file_or_key_fails_closed(self, committed, capsys, baseline):
        if baseline == "full":
            committed({"evaluations": 1041}, mode="full")
        elif baseline is not None:
            committed(baseline)
        report = GateReport("fake", mode="quick")
        report.count("evaluations", 1041)
        assert report.finish() == 1
        out = capsys.readouterr().out
        assert "GATE fake/evaluations: FAIL" in out
        assert "REPRO_BENCH_JSON_DIR=. PYTHONPATH=src python benchmarks/bench_fake.py --quick" in out

    def test_a_full_mode_run_compares_nothing_and_says_so(self, committed, capsys):
        committed({"evaluations": 1041})
        report = GateReport("fake", mode="full")
        report.count("evaluations", 9999)
        assert report.finish() == 0
        assert report.gates == []
        assert "counts not compared: a full-mode run has no committed baseline" in (
            capsys.readouterr().out
        )

    def test_the_snapshot_names_its_counts_and_paired_medians(self, committed, tmp_path,
                                                             monkeypatch):
        committed({"evaluations": 1041})
        out_dir = tmp_path / "fresh"
        monkeypatch.setenv("REPRO_BENCH_JSON_DIR", str(out_dir))
        report = GateReport("fake", mode="quick")
        report.count("evaluations", 1041)
        report.paired("r", constant(1.0), constant(2.0), 1.0, "lower", "why")
        assert report.finish() == 0
        doc = json.loads((out_dir / "BENCH_fake.json").read_text())
        assert (doc["counts"], doc["paired"]) == (["evaluations"], ["r"])
        assert doc["metrics"]["evaluations"] == 1041 and doc["passed"]


def test_bench_trend_prints_one_row_per_commit(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    for evaluations, ratio in ((1041, 0.5), (1040, 0.25)):
        doc = {"bench": "fake", "mode": "quick", "counts": ["evaluations"], "paired": ["r"],
               "metrics": {"evaluations": evaluations, "r": ratio, "serial_s": 1.5}}
        (tmp_path / "BENCH_fake.json").write_text(json.dumps(doc))
        git("add", "BENCH_fake.json")
        git("commit", "-q", "-m", f"capture {evaluations}")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_trend.py")],
        cwd=tmp_path, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    assert out[0] == "BENCH_fake.json"
    assert out[1].split() == ["commit", "date", "evaluations", "r"]
    rows = [line.split() for line in out[2:]]
    assert [row[2:] for row in rows] == [["1040", "0.25"], ["1041", "0.5"]]

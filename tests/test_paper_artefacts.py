"""One definition per paper artefact.

Each table / figure / ablation lives in exactly one
``benchmarks/bench_*.py`` as an ``ARTEFACT`` record (run / render /
check); ``tools/reproduce_all.py`` only discovers and loops them.
These tests pin that: the discovered set is the documented set, the
loop really runs run -> render -> check, a broken model fails the gate,
and the driver holds no experiment parameter of its own.
"""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.core import CBES, EvaluationOptions
from repro.experiments.report import ascii_table

REPO = Path(__file__).resolve().parent.parent
DRIVER = REPO / "tools" / "reproduce_all.py"
GOLDEN_TOOL = REPO / "tools" / "paper_golden.py"


@pytest.fixture(scope="module")
def driver():
    """``tools/reproduce_all.py`` as a module; its sys.path/sys.modules traces undone after.

    Here (only) the suite's ``make_context`` is memoised, so the two tests
    that need Centurion pay its one-second calibration once.
    """
    pytest.importorskip("numpy")  # the bench recipes average with it
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("reproduce_all", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    suite = importlib.import_module("conftest")  # benchmarks/conftest.py, first on sys.path now
    suite.make_context = functools.cache(suite.make_context)
    yield module
    sys.path[:] = path
    for name in set(sys.modules) - modules:
        if name == "conftest" or name.startswith("bench_"):
            del sys.modules[name]


def test_documented_benches_are_the_records_and_nothing_else(driver):
    docs = (REPO / "EXPERIMENTS.md").read_text() + (REPO / "DESIGN.md").read_text()
    indexed = set(re.findall(r"bench_\w+\.py", docs))
    records = driver.discover()
    homes = {Path(sys.modules[r.run.__module__].__file__).name for r in records}
    assert homes == indexed
    assert len({r.name for r in records}) == len(records) == 17


def test_cheapest_records_run_render_check_through_the_driver_loop(driver, tmp_path):
    cheap = ("ablation_lambda", "ablation_load_latency", "latency_spread")
    records = [r for r in driver.discover() if r.name in cheap]
    assert tuple(r.name for r in records) == cheap
    assert driver.reproduce(records, tmp_path) == []
    report = (tmp_path / "REPORT.txt").read_text()
    for name in cheap:
        text = (tmp_path / f"{name}.txt").read_text()
        assert text.count("\n") > 3 and text in report
        assert f"==== {name} [ok] ====" in report


def test_lambda_gate_fails_when_lambda_is_forced_to_one(driver, tmp_path, monkeypatch):
    [record] = [r for r in driver.discover() if r.name == "ablation_lambda"]
    monkeypatch.setattr(
        sys.modules[record.run.__module__],
        "EvaluationOptions",
        lambda use_lambda: EvaluationOptions(use_lambda=False),
    )
    assert driver.reproduce([record], tmp_path) == ["ablation_lambda"]
    assert "==== ablation_lambda [CHECK FAILED] ====" in (tmp_path / "REPORT.txt").read_text()


def test_fidelity_gate_fails_when_communication_is_dropped(driver, tmp_path, monkeypatch):
    [record] = [r for r in driver.discover() if r.name == "fidelity"]
    evaluator = CBES.evaluator
    monkeypatch.setattr(
        CBES,
        "evaluator",
        lambda self, app_name: evaluator(
            self, app_name, options=EvaluationOptions(communication=False)
        ),
    )
    assert driver.reproduce([record], tmp_path) == ["fidelity"]
    assert "==== fidelity [CHECK FAILED] ====" in (tmp_path / "REPORT.txt").read_text()


def test_driver_holds_no_experiment_parameter():
    tree = ast.parse(DRIVER.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom | ast.Import):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [alias.name for alias in node.names]
            assert not any(n.startswith(("repro.workloads", "repro.schedulers")) for n in names)
        if isinstance(node, ast.Call):
            assert "seed" not in {kw.arg for kw in node.keywords}
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else node.func
            assert getattr(callee, "id", callee) != "AnnealingSchedule"
    assert len(DRIVER.read_text().splitlines()) <= 90


@pytest.fixture(scope="module")
def golden():
    """``tools/paper_golden.py`` as a module."""
    spec = importlib.util.spec_from_file_location("paper_golden", GOLDEN_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPaperGolden:
    """``reproduce_all.py --check-golden``: the masked report is the golden."""

    def test_the_mask_hides_wall_clock_cells_and_nothing_else(self, golden):
        def report(wall: str, evals: str) -> str:
            table = ascii_table(["scheduler", "mean evals", "wall (s)"], [["SA", evals, wall]])
            return f"==== x [ok] ====\n{table}\nsummary line\nSA | 1 | 0.5\n"

        assert golden.mask(report("0.073", "2337")) == golden.mask(report("0.065", "2337"))
        assert golden.mask(report("0.073", "2337")) != golden.mask(report("0.073", "2338"))
        masked = golden.mask(report("0.073", "2337"))
        assert "SA        | 2337       | *       " in masked
        assert masked.endswith("summary line\nSA | 1 | 0.5\n")  # the table ended above
        assert golden.mask(masked) == masked

    def test_the_golden_holds_every_record_masked(self, golden):
        text = golden.GOLDEN.read_text()
        assert golden.mask(text) == text
        assert len(re.findall(r"^==== \w+ \[ok\] ====$", text, re.M)) == 17

    def test_the_check_fails_on_one_moved_digit(self, golden, tmp_path, capsys):
        text = golden.GOLDEN.read_text()
        (tmp_path / "REPORT.txt").write_text(text)
        assert golden.check(tmp_path)
        hits = re.search(r"^LU \(1\) high   \| CS      \| [\d.]+ +\| (\d+) ", text, re.M)
        moved = text[: hits.start(1)] + str(int(hits[1]) - 10) + text[hits.end(1) :]
        (tmp_path / "REPORT.txt").write_text(moved)
        assert not golden.check(tmp_path)
        assert (tmp_path / "REPORT.masked.txt").read_text() == moved
        assert "-LU (1) high   | CS " in capsys.readouterr().err

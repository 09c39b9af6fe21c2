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

from repro.core import EvaluationOptions

REPO = Path(__file__).resolve().parent.parent
DRIVER = REPO / "tools" / "reproduce_all.py"


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

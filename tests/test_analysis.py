"""Tests for the repro.analysis invariant checker suite.

Each rule gets positive (trips), negative (clean), suppressed, and
baselined fixtures; the engine, baseline store, and CLI are exercised
directly; and an end-to-end run over the repository's own sources
asserts the committed tree stays clean (the same gate CI applies).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    analyze_paths,
    analyze_source,
    apply_baseline,
    load_baseline,
    module_name_for,
    registered_checkers,
    write_baseline,
)
from repro.analysis.cli import run as cli_run

REPO = Path(__file__).resolve().parent.parent


def check(source: str, module: str | None = None, rules: set[str] | None = None) -> list[Finding]:
    """Run the suite over one dedented snippet."""
    return analyze_source(textwrap.dedent(source), path="snippet.py", module=module, rules=rules)


def rule_ids(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# engine mechanics


def test_registry_contains_full_rule_pack():
    assert {"RPR100", "RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106"} <= set(
        registered_checkers()
    )


def test_documented_scopes_are_the_checkers_scopes():
    """docs/ANALYSIS.md's scope column names exactly each checker's ``scopes``."""
    rows = re.findall(
        r"^\| (RPR\d+) \| [^|]+ \| ([^|]+) \|", (REPO / "docs/ANALYSIS.md").read_text(), re.M
    )
    documented = {rule: set(re.findall(r"`(repro\.\w+)`", cell)) for rule, cell in rows}
    for rule, checker in registered_checkers().items():  # RPR000 is the engine's own
        assert documented[rule] == set(checker.scopes or ()), rule


def test_syntax_error_becomes_rpr000_finding():
    findings = check("def broken(:\n    pass\n")
    assert rule_ids(findings) == {"RPR000"}


def test_module_name_for_maps_src_layout():
    assert module_name_for(REPO / "src/repro/schedulers/base.py") == "repro.schedulers.base"
    assert module_name_for(REPO / "src/repro/core/__init__.py") == "repro.core"
    assert module_name_for(REPO / "tests/test_analysis.py") is None


def test_scoped_rules_skip_out_of_scope_modules():
    source = "import time\n\ndef f():\n    time.time()\n"
    in_scope = check(source, module="repro.schedulers.custom")
    out_of_scope = check(source, module="repro.workloads.custom")
    assert "RPR101" in rule_ids(in_scope)
    assert "RPR101" not in rule_ids(out_of_scope)


def test_inline_suppression_silences_only_that_line_and_rule():
    source = """\
        import time

        def f():
            time.time()  # repro: disable=RPR101
            return time.time()
        """
    findings = [f for f in check(source, module="repro.core.x") if f.rule == "RPR101"]
    assert len(findings) == 1
    assert findings[0].line == 5


def test_disable_all_suppression():
    source = "import time\n\ndef f():\n    return time.time()  # repro: disable=all\n"
    assert "RPR101" not in rule_ids(check(source, module="repro.core.x"))


def test_rules_filter_limits_active_checkers():
    source = "import os\n\ndef f():\n    return os.urandom(4)\n"
    only_imports = check(source, module="repro.core.x", rules={"RPR100"})
    assert rule_ids(only_imports) == set()  # os *is* used; nothing else ran


# ---------------------------------------------------------------------------
# RPR100 unused imports (and the lint.py false-negative regression)


def test_rpr100_flags_unused_import():
    findings = check("import os\nimport sys\n\nprint(sys.argv)\n")
    assert [f for f in findings if f.rule == "RPR100" and "'os'" in f.message]


def test_rpr100_string_constant_no_longer_masks_unused_import():
    # Regression: the old tools/lint.py counted EVERY string constant as
    # a use, so this docstring mention of "os" hid the dead import.
    source = '"""Helpers for os-level work."""\nimport os\n\nX = "os"\n'
    findings = check(source)
    assert [f for f in findings if f.rule == "RPR100" and "'os'" in f.message]


def test_rpr100_dunder_all_still_counts_as_use():
    source = "from repro.core import mapping\n\n__all__ = ['mapping']\n"
    assert "RPR100" not in rule_ids(check(source))


def test_rpr100_string_annotations_count_as_use():
    source = """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from collections import OrderedDict

        def f(x: "OrderedDict") -> "OrderedDict":
            return x
        """
    assert "RPR100" not in rule_ids(check(source))


def test_rpr100_skips_init_files():
    findings = analyze_source("import os\n", path="pkg/__init__.py", module="pkg")
    assert "RPR100" not in rule_ids(findings)


def test_rpr100_applies_outside_src_scopes():
    findings = analyze_source("import json\n", path="tests/helper.py", module=None)
    assert "RPR100" in rule_ids(findings)


# ---------------------------------------------------------------------------
# RPR101 determinism


@pytest.mark.parametrize(
    "call",
    ["time.time()", "os.urandom(8)", "random.random()", "np.random.default_rng()"],
)
def test_rpr101_flags_entropy_sources(call):
    source = f"import time, os, random\nimport numpy as np\n\ndef f():\n    return {call}\n"
    assert "RPR101" in rule_ids(check(source, module="repro.schedulers.custom"))


def test_rpr101_allows_monotonic_clocks_and_threaded_rng():
    source = """\
        import time

        def f(rng):
            start = time.perf_counter()
            deadline = time.monotonic() + 5.0
            return rng.random(), start, deadline
        """
    assert "RPR101" not in rule_ids(check(source, module="repro.search.custom"))


def test_rpr101_flags_min_max_over_set():
    source = "def f(xs):\n    return max({x for x in xs})\n"
    assert "RPR101" in rule_ids(check(source, module="repro.core.custom"))
    source2 = "def f(xs):\n    return min(set(xs))\n"
    assert "RPR101" in rule_ids(check(source2, module="repro.core.custom"))


def test_rpr101_allows_min_max_over_sorted():
    source = "def f(xs):\n    return max(sorted(set(xs)))\n"
    assert "RPR101" not in rule_ids(check(source, module="repro.core.custom"))


# ---------------------------------------------------------------------------
# RPR102 picklability


def test_rpr102_flags_lambda_into_submit():
    source = "def f(executor, m):\n    return executor.submit(lambda: m + 1)\n"
    assert "RPR102" in rule_ids(check(source, module="repro.search.custom"))


def test_rpr102_flags_nested_function_into_submit():
    source = """\
        def f(executor):
            def task():
                return 1
            return executor.submit(task)
        """
    assert "RPR102" in rule_ids(check(source, module="repro.search.custom"))


def test_rpr102_flags_bound_method_into_submit():
    source = """\
        class S:
            def go(self, executor):
                return executor.submit(self.work)
        """
    assert "RPR102" in rule_ids(check(source, module="repro.schedulers.custom"))


def test_rpr102_flags_lambda_searchspec_constraint():
    source = """\
        def f(evaluator, pool):
            return SearchSpec.from_evaluator(evaluator, pool, constraint=lambda m: True)
        """
    assert "RPR102" in rule_ids(check(source, module="repro.schedulers.custom"))


def test_rpr102_allows_module_level_function_and_data_fields():
    source = """\
        def feasible(m):
            return True

        class S:
            def go(self, executor, evaluator, pool):
                spec = SearchSpec.from_evaluator(
                    evaluator, pool, constraint=feasible, options=self.energy_options
                )
                return executor.submit(feasible), spec
        """
    assert "RPR102" not in rule_ids(check(source, module="repro.search.custom"))


# ---------------------------------------------------------------------------
# RPR103 async-safety


@pytest.mark.parametrize(
    "call",
    ["time.sleep(1)", "subprocess.run(['ls'])", "open('x')", "os.system('ls')"],
)
def test_rpr103_flags_blocking_calls_in_async_def(call):
    source = f"import time, os, subprocess\n\nasync def handler():\n    {call}\n"
    assert "RPR103" in rule_ids(check(source, module="repro.server.custom"))


def test_rpr103_allows_blocking_calls_in_sync_helpers():
    source = "import time\n\ndef poll():\n    time.sleep(0.1)\n"
    assert "RPR103" not in rule_ids(check(source, module="repro.server.custom"))


def test_rpr103_nested_sync_def_resets_async_context():
    source = """\
        import time

        async def handler():
            def blocking_helper():
                time.sleep(0.1)
            return blocking_helper
        """
    assert "RPR103" not in rule_ids(check(source, module="repro.server.custom"))


def test_rpr103_only_applies_to_server_package():
    source = "import time\n\nasync def f():\n    time.sleep(1)\n"
    assert "RPR103" not in rule_ids(check(source, module="repro.experiments.custom"))


# ---------------------------------------------------------------------------
# RPR104 float equality


def test_rpr104_flags_energy_equality():
    source = "def f(a, b):\n    return a.energy == b.energy\n"
    assert "RPR104" in rule_ids(check(source, module="repro.core.custom"))


def test_rpr104_flags_float_literal_comparison():
    source = "def f(predicted_time):\n    return predicted_time == 3.25\n"
    assert "RPR104" in rule_ids(check(source, module="repro.schedulers.custom"))


def test_rpr104_allows_exact_sentinels_and_isclose():
    source = """\
        import math

        def f(noise, delta, cost):
            if noise == 0.0:
                return True
            return math.isclose(delta, cost)
        """
    assert "RPR104" not in rule_ids(check(source, module="repro.core.custom"))


def test_rpr104_ignores_non_float_comparisons():
    source = "def f(name, count):\n    return name == 'lu.S' and count == 3\n"
    assert "RPR104" not in rule_ids(check(source, module="repro.core.custom"))


# ---------------------------------------------------------------------------
# RPR105 API hygiene


def test_rpr105_flags_missing_docstring_on_public_function():
    source = "def schedule(pool):\n    return pool[0]\n"
    assert "RPR105" in rule_ids(check(source, module="repro.core.custom"))


def test_rpr105_allows_private_and_nested_functions():
    source = """\
        def _helper(pool):
            return pool

        def schedule(pool):
            \"\"\"Pick a node.\"\"\"
            def inner():
                return pool[0]
            return inner()
        """
    assert "RPR105" not in rule_ids(check(source, module="repro.core.custom"))


def test_rpr105_flags_mutable_default():
    source = 'def schedule(pool=[]):\n    """Pick."""\n    return pool\n'
    findings = check(source, module="repro.schedulers.custom")
    assert [f for f in findings if f.rule == "RPR105" and "mutable default" in f.message]


def test_rpr105_out_of_scope_module_is_exempt():
    source = "def schedule(pool):\n    return pool[0]\n"
    assert "RPR105" not in rule_ids(check(source, module="repro.monitoring.custom"))


# ---------------------------------------------------------------------------
# RPR106 telemetry hygiene


def test_rpr106_flags_counter_without_total_suffix():
    source = 'registry.counter("cbes_things", help="things seen")\n'
    findings = check(source, module="repro.server.custom")
    assert [f for f in findings if f.rule == "RPR106" and "_total" in f.message]


def test_rpr106_flags_histogram_without_unit_suffix():
    source = 'registry.histogram("cbes_latency", help="latency")\n'
    findings = check(source, module="repro.server.custom")
    assert [f for f in findings if f.rule == "RPR106" and "unit" in f.message]


def test_rpr106_flags_gauge_ending_in_total():
    source = 'registry.gauge("cbes_depth_total", help="queue depth")\n'
    findings = check(source, module="repro.server.custom")
    assert [f for f in findings if f.rule == "RPR106" and "instantaneous" in f.message]


def test_rpr106_flags_non_snake_case_name():
    source = 'registry.counter("cbesRequests_total")\n'
    findings = check(source)
    assert [f for f in findings if f.rule == "RPR106" and "snake_case" in f.message]


def test_rpr106_flags_dynamic_label_values():
    source = """\
        def record(counter, hist, path, jid):
            counter.inc(route=f"/v1/jobs/{jid}")
            hist.observe(0.2, route="/v1/jobs/{}".format(jid))
        """
    findings = [f for f in check(source, module="repro.server.custom") if f.rule == "RPR106"]
    assert len(findings) == 2
    assert all("label" in f.message for f in findings)


def test_rpr106_accepts_conforming_instrumentation():
    source = """\
        def instrument(registry, route):
            requests = registry.counter("cbes_requests_total", labelnames=("route",))
            registry.gauge("cbes_queue_depth", help="jobs waiting")
            seconds = registry.histogram("cbes_request_seconds")
            requests.inc(route=route)
            seconds.observe(0.01, route=route)
        """
    assert "RPR106" not in rule_ids(check(source, module="repro.server.custom"))


def test_rpr106_ignores_dynamic_metric_names_and_unrelated_calls():
    # A name the checker cannot resolve statically is left alone, as are
    # unrelated attribute calls that happen to share a method name.
    source = """\
        def f(registry, options, name):
            registry.counter(name)
            options.set(retries=3)
        """
    assert "RPR106" not in rule_ids(check(source, module="repro.server.custom"))


def test_rpr106_inline_suppression():
    source = 'registry.counter("cbes_things")  # repro: disable=RPR106\n'
    assert "RPR106" not in rule_ids(check(source, module="repro.server.custom"))


# ---------------------------------------------------------------------------
# baseline workflow


def _finding(rule="RPR105", path="src/repro/core/x.py", line=3, msg="m") -> Finding:
    return Finding(path=path, line=line, col=1, rule=rule, message=msg)


def test_baseline_roundtrip_and_matching(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    grandfathered = [_finding(msg="old finding"), _finding(msg="old finding", line=9)]
    write_baseline(grandfathered, baseline_path)
    counts = load_baseline(baseline_path)
    assert counts[grandfathered[0].fingerprint()] == 2

    # Same fingerprints at shifted lines still match; a new finding does not.
    now = [_finding(msg="old finding", line=30), _finding(msg="brand new")]
    report = apply_baseline(now, counts, checked_files=1)
    assert [f.message for f in report.findings] == ["brand new"]
    assert len(report.baselined) == 1
    # Only one of the two allowed counts matched: the leftover is
    # reported stale so the committed count gets shrunk to 1.
    assert report.stale_baseline == [grandfathered[0].fingerprint()]
    assert report.exit_code == 1


def test_baseline_reports_fully_stale_entries(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    write_baseline([_finding(msg="fixed long ago")], baseline_path)
    report = apply_baseline([], load_baseline(baseline_path))
    assert report.stale_baseline == [_finding(msg="fixed long ago").fingerprint()]
    assert report.exit_code == 0


def test_missing_baseline_is_empty():
    assert load_baseline(None) == {}
    assert load_baseline(Path("/nonexistent/baseline.json")) == {}


def test_baselined_fixture_passes_then_new_violation_fails(tmp_path):
    """The CI contract: baselined findings pass, new determinism ones fail."""
    pkg = tmp_path / "src" / "repro" / "schedulers"
    pkg.mkdir(parents=True)
    bad = pkg / "legacy.py"
    bad.write_text("import time\n\n\ndef jitter():\n    \"\"\"Doc.\"\"\"\n    return time.time()\n")
    findings, checked = analyze_paths([bad], root=tmp_path)
    assert checked == 1 and rule_ids(findings) == {"RPR101"}

    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, baseline_path)
    clean = apply_baseline(findings, load_baseline(baseline_path))
    assert clean.exit_code == 0

    bad.write_text(bad.read_text() + "\n\ndef more():\n    \"\"\"Doc.\"\"\"\n    return time.time()\n")
    findings2, _ = analyze_paths([bad], root=tmp_path)
    dirty = apply_baseline(findings2, load_baseline(baseline_path))
    assert dirty.exit_code == 1
    assert len(dirty.findings) == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_text_and_json_formats(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import os\n")
    assert cli_run([str(target), "--no-baseline"]) == 1
    text_out = capsys.readouterr().out
    assert "RPR100" in text_out

    assert cli_run([str(target), "--no-baseline", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] == 1
    assert payload["findings"][0]["rule"] == "RPR100"


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text('"""Doc."""\n')
    assert cli_run([str(clean), "--no-baseline"]) == 0
    capsys.readouterr()
    assert cli_run([str(tmp_path / "missing.py")]) == 2
    assert cli_run([str(clean), "--rules", "RPR9999"]) == 2


def test_cli_fix_baseline_then_clean(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import os\n")
    baseline = tmp_path / "baseline.json"
    assert cli_run([str(target), "--baseline", str(baseline), "--fix-baseline"]) == 0
    capsys.readouterr()
    assert cli_run([str(target), "--baseline", str(baseline)]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert cli_run(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("RPR100", "RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106"):
        assert rule in out


# ---------------------------------------------------------------------------
# end-to-end over the repository itself


def test_repo_sources_are_clean_with_committed_baseline():
    """The committed tree passes the suite — the exact gate CI runs."""
    roots = [REPO / r for r in ("src", "tests", "benchmarks", "tools", "examples")]
    findings, checked = analyze_paths([r for r in roots if r.is_dir()], root=REPO)
    baseline = load_baseline(REPO / "tools" / "analysis_baseline.json")
    report = apply_baseline(findings, baseline, checked_files=checked)
    assert checked > 100
    assert report.findings == [], "\n".join(f.format_text() for f in report.findings)
    assert report.stale_baseline == []


def test_module_entry_point_runs_clean():
    """``python -m repro.analysis`` from the repo root exits 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json", "src"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["summary"]["findings"] == 0


def test_lint_entry_point_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint.py")],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

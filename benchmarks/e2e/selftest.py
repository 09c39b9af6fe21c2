#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 benchmarks/e2e/selftest.py``.

Runs every workload at a fiftieth of its measured time over one shared
database, plus one traced run, and asserts what the driver relies on:
the printed workload and metric names are exactly those of
``BENCHMARK.json``, every value is finite and carries the declared unit,
the percentile and self-time helpers are right on hand-built spans,
``compare.py`` reaches the right verdicts, and a corrupted answer is
counted as failed.  Exits non-zero on the first broken assertion.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import time

import run
import stack
import workloads
from check import Oracle
from compare import verdict
from trace import Span, covered, percentile, self_times, tail_pct


def test_helpers() -> None:
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert math.isclose(percentile(values, 90), 4.6)
    assert percentile([7.0], 99) == 7.0
    assert (tail_pct(19), tail_pct(100), tail_pct(1000), tail_pct(10_000)) == (50, 90, 99, 99.9)
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    spans = [
        Span("request", 0.0, 10.0, index=0),
        Span("client.submit", 1.0, 3.0, parent=0, index=1),
        Span("server.exec", 2.0, 5.0, parent=0, index=2),  # overlaps the submit
        Span("client.poll", 7.0, 8.0, parent=0, index=3),
        Span("socket", 7.5, 8.0, parent=3, index=4),
    ]
    assert self_times(spans) == {
        "request": 5.0, "client.submit": 2.0, "server.exec": 3.0, "client.poll": 0.5, "socket": 0.5,
    }


def test_verdicts() -> None:
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.10)[1] == "within bound"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)[1] == "regression"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.10)[1] == "regression"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert verdict(noisy, noisy, "lower", 0.10)[1] == "unresolved"
    assert verdict(noisy, [v / 2 for v in noisy], "lower", 0.10)[1] == "within bound"


def test_spec(spec: dict) -> None:
    listed = [name for name, workload in workloads.WORKLOADS.items() if workload.listed]
    assert [w["name"] for w in spec["workloads"]] == listed
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert spec["paths"] == [str(stack.E2E_DIR.relative_to(stack.REPO_ROOT))]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def check_report(name: str, trace: bool, result: dict, spec: dict) -> None:
    """The printed names and the contract line equal ``BENCHMARK.json``."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        line = run.report(name, 1, 0.0, trace, result, spec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    assert {m: v["unit"] for m, v in line["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    rows = [row.split() for row in printed.getvalue().splitlines()]
    assert f"== {name}" in printed.getvalue()
    printed_units = {row[0]: row[2] for row in rows if len(row) >= 3 and row[0] in declared}
    assert printed_units == declared, (printed_units, declared)


def test_corruption(oracle: Oracle, nodes: list[str]) -> None:
    doc = workloads.canary_requests(nodes)[0]
    good = {"state": "done", "result": copy.deepcopy(oracle.expected(doc))}
    assert oracle.count_failed([(doc, good)]) == 0
    wrong = copy.deepcopy(good)
    wrong["result"]["execution_time"] = math.nextafter(wrong["result"]["execution_time"], math.inf)
    unfinished = {**good, "state": "failed"}
    assert oracle.count_failed([(doc, good), (doc, wrong), (doc, unfinished)]) == 2


def main() -> int:
    started = time.monotonic()
    spec = json.loads(run.SPEC_PATH.read_text())
    test_helpers()
    test_verdicts()
    test_spec(spec)
    fiftieth = spec["run_seconds"] / 50
    workdir = stack.make_workdir("selftest")
    try:
        db = workdir / "db"
        stack.build_db(db)
        test_corruption(Oracle(db), run.stack_nodes())
        for name in workloads.WORKLOADS:
            result = run.run_workload(name, 1, fiftieth, False, reps=1, db=db)
            check_report(name, False, result, spec)
            print(f"ok {name}: {result['attempted']} operations, "
                  f"{time.monotonic() - started:.1f} s so far")
        result = run.run_workload("quote_stream", 1, fiftieth, True)
        check_report("quote_stream", True, result, spec)
        print(f"ok traced quote_stream: {len(result['metrics'])} per-layer values")
    finally:
        stack.remove_workdir(workdir)
    print(f"selftest passed in {time.monotonic() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Table 4 — average-case scenario for the schedulable table-3 programs.

Paper: over 100 CS + 100 NCS runs per case, CS hit rates of 65-98 %
(NCS 1-5 %) and measured CS-over-NCS speedups of 5.2-10.3 % — within
10 % of each case's maximum speedup.
"""

from __future__ import annotations

from repro.experiments.harness import Artefact, repetitions
from repro.experiments.report import ascii_table
from repro.experiments.scheduling import average_case

from bench_table3_other_worst_best import TABLE3_CASES
from conftest import BENCH_SA

#: The schedulable table-3 programs (the ones the paper does not mark uncertain).
TABLE4_CASES = [(label, factory) for label, factory, uncertain in TABLE3_CASES if not uncertain]


def run(ctx):
    nruns = repetitions(8, 100)
    pool = ctx.service.cluster.nodes_by_arch("pii-400")
    return [
        average_case(
            ctx, factory(), pool, nruns=nruns, seed=61, case=label,
            schedule=BENCH_SA, hit_tolerance=0.015,
        )
        for label, factory in TABLE4_CASES
    ]


def render(results) -> str:
    rows = []
    for r in results:
        rows.append(
            [
                r.case,
                f"{r.ncs.predicted.mean:.1f}",
                f"{r.ncs.hit_percent:.0f}",
                f"{r.ncs.measured.mean:.1f}",
                f"{r.cs.predicted.mean:.1f}",
                f"{r.cs.hit_percent:.0f}",
                f"{r.cs.measured.mean:.1f}",
                f"{r.measured_speedup_percent:.1f}",
                f"{r.maximum_speedup_percent:.1f}",
            ]
        )
    return ascii_table(
        [
            "test case",
            "NCS pred",
            "NCS hit%",
            "NCS meas",
            "CS pred",
            "CS hit%",
            "CS meas",
            "speedup %",
            "max %",
        ],
        rows,
        title="Table 4: other tests, average case scenario",
    )


def check(results) -> None:
    for r in results:
        assert r.cs.hit_percent >= r.ncs.hit_percent, r.case
        assert r.cs.measured.mean <= r.ncs.measured.mean * 1.005, r.case
        assert r.measured_speedup_percent > 0.5, r.case
        # The average-case speedup stays within ~10 points of the bound.
        assert r.measured_speedup_percent <= r.maximum_speedup_percent + 10.0, r.case


ARTEFACT = Artefact("table4", "orange-grove", run, render, check)

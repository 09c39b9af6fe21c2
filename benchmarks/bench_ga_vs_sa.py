"""Future work — genetic-algorithm scheduling vs simulated annealing.

Section 8: *"We further intend to investigate the suitability of other
scheduling algorithms, e.g. genetic algorithms, for CBES-supported
scheduling, and the resulting performance."*  This bench runs that
comparison: CS (SA), GA, greedy and RS on the LU medium zone, comparing
solution quality against evaluation budget.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import Artefact
from repro.experiments.report import ascii_table
from repro.experiments.scheduling import lu_zones
from repro.schedulers import (
    AnnealingSchedule,
    CbesScheduler,
    GeneticParams,
    GeneticScheduler,
    GreedyScheduler,
    RandomScheduler,
)
from repro.workloads import LU

SCHEDULERS = [
    ("SA (CS)", lambda c: CbesScheduler(schedule=AnnealingSchedule(), constraint=c)),
    ("GA", lambda c: GeneticScheduler(params=GeneticParams(), constraint=c)),
    ("GA small", lambda c: GeneticScheduler(params=GeneticParams(population=10, generations=15), constraint=c)),
    ("greedy", lambda c: GreedyScheduler(constraint=c)),
    ("random", lambda c: RandomScheduler(constraint=c)),
]


def run(ctx, nruns: int = 5):
    app = LU("A")
    cluster = ctx.service.cluster
    zone = lu_zones(cluster)["medium"]
    constraint = zone.constraint(cluster)
    ctx.ensure_profiled(app, 8, seed=0)
    rows = []
    for label, factory in SCHEDULERS:
        preds, evals, wall = [], [], []
        for k in range(nruns):
            result = ctx.service.schedule(
                app.name, factory(constraint), list(zone.pool), seed=800 + k
            )
            preds.append(result.predicted_time)
            evals.append(result.evaluations)
            wall.append(result.wall_time_s)
        rows.append(
            {
                "scheduler": label,
                "mean": float(np.mean(preds)),
                "best": float(np.min(preds)),
                "evals": float(np.mean(evals)),
                "wall": float(np.mean(wall)),
            }
        )
    return rows


def render(rows) -> str:
    return ascii_table(
        ["scheduler", "mean predicted (s)", "best predicted (s)", "mean evals", "wall (s)"],
        [
            [r["scheduler"], f"{r['mean']:.1f}", f"{r['best']:.1f}", f"{r['evals']:.0f}", f"{r['wall']:.3f}"]
            for r in rows
        ],
        title="Future work: GA vs SA scheduling on the CBES energy (LU medium zone)",
    )


def check(rows) -> None:
    by = {r["scheduler"]: r for r in rows}
    # Both metaheuristics beat random selection decisively.
    assert by["SA (CS)"]["mean"] < by["random"]["mean"] - 2.0
    assert by["GA"]["mean"] < by["random"]["mean"] - 2.0
    # GA with a real budget is competitive with SA (within ~3 %).
    assert by["GA"]["mean"] <= by["SA (CS)"]["mean"] * 1.03
    # Quality degrades gracefully with a smaller GA budget.
    assert by["GA small"]["mean"] >= by["GA"]["mean"] - 0.5


ARTEFACT = Artefact("ga_vs_sa", "orange-grove", run, render, check)

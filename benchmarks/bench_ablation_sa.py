"""Ablation — SA cooling schedule and move mix.

DESIGN.md calls out the annealer's schedule and neighbourhood as design
choices.  This ablation compares scheduling quality (predicted time of
the selected mapping) and cost (evaluations) across schedules and swap
probabilities on the LU medium zone, where both node choice (replace
moves) and rank placement (swap moves) matter.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import Artefact
from repro.experiments.report import ascii_table
from repro.experiments.scheduling import lu_zones
from repro.schedulers import AnnealingSchedule, CbesScheduler
from repro.workloads import LU

VARIANTS = [
    ("fast cool (0.8), few moves", AnnealingSchedule(moves_per_temperature=15, cooling=0.8, steps=20), 0.5),
    ("default (0.92)", AnnealingSchedule(), 0.5),
    ("slow cool (0.97), more moves", AnnealingSchedule(moves_per_temperature=80, cooling=0.97, steps=50), 0.5),
    ("swap-only moves", AnnealingSchedule(), 1.0),
    ("replace-heavy moves", AnnealingSchedule(), 0.15),
]


def run(ctx, nruns: int = 5):
    app = LU("A")
    cluster = ctx.service.cluster
    zone = lu_zones(cluster)["medium"]
    constraint = zone.constraint(cluster)
    ctx.ensure_profiled(app, 8, seed=0)
    rows = []
    for label, schedule, swap_p in VARIANTS:
        predictions, evals = [], []
        for k in range(nruns):
            result = ctx.service.schedule(
                app.name,
                CbesScheduler(schedule=schedule, swap_probability=swap_p, constraint=constraint),
                list(zone.pool),
                seed=700 + k,
            )
            predictions.append(result.predicted_time)
            evals.append(result.evaluations)
        rows.append(
            {
                "variant": label,
                "mean_pred": float(np.mean(predictions)),
                "best_pred": float(np.min(predictions)),
                "mean_evals": float(np.mean(evals)),
            }
        )
    return rows


def render(rows) -> str:
    return ascii_table(
        ["variant", "mean predicted (s)", "best predicted (s)", "mean evaluations"],
        [
            [r["variant"], f"{r['mean_pred']:.1f}", f"{r['best_pred']:.1f}", f"{r['mean_evals']:.0f}"]
            for r in rows
        ],
        title="Ablation: SA cooling schedule and move mix (LU medium zone)",
    )


def check(rows) -> None:
    by = {r["variant"]: r for r in rows}
    slow = by["slow cool (0.97), more moves"]
    fast = by["fast cool (0.8), few moves"]
    # More search budget buys solution quality (or at least never loses).
    assert slow["mean_pred"] <= fast["mean_pred"] + 0.5
    assert slow["mean_evals"] > 3 * fast["mean_evals"]
    # Swap-only search cannot change the node set: on a mixed-speed
    # pool it gets stuck with whatever nodes the random start drew.
    assert by["swap-only moves"]["mean_pred"] >= by["default (0.92)"]["mean_pred"] - 0.5


ARTEFACT = Artefact("ablation_sa", "orange-grove", run, render, check)

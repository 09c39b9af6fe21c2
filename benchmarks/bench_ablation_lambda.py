"""Ablation — the lambda correction factor of eq. (7).

DESIGN.md calls out lambda as a load-bearing design choice: it absorbs
the difference between theoretical message time and the application's
actual overlap/overhead behaviour.  This ablation compares prediction
error with and without lambda for an overlap-heavy and an
overhead-heavy synthetic application.
"""

from __future__ import annotations

import numpy as np

from repro._util import percent_error, spawn_rng
from repro.core import EvaluationOptions
from repro.experiments.harness import Artefact
from repro.experiments.report import ascii_table
from repro.schedulers.base import random_mapping
from repro.workloads import SyntheticBenchmark


def run(ctx):
    cluster = ctx.service.cluster
    rng = spawn_rng(91, "abl-lambda")
    rows = []
    for label, overlap in (("overlapped (lambda<1)", 1.0), ("serialized (lambda~1)", 0.0)):
        app = SyntheticBenchmark(
            comm_fraction=0.45, overlap=overlap, duration_s=30.0, steps=10,
            name=f"abl.lambda.{overlap}",
        )
        profile = ctx.ensure_profiled(app, 8, seed=4)
        lam_mean = float(np.mean([p.lam for p in profile.processes]))
        errors = {True: [], False: []}
        program = app.program(8)
        for k in range(6):
            mapping = random_mapping(cluster.node_ids(), 8, rng)
            measured = ctx.service.simulator.run(
                program, mapping.as_dict(), seed=300 + k,
                arch_affinity=app.arch_affinity, collect_trace=False,
            ).total_time
            for use_lambda in (True, False):
                predicted = ctx.service.evaluator(
                    app.name, options=EvaluationOptions(use_lambda=use_lambda)
                ).execution_time(mapping)
                errors[use_lambda].append(percent_error(predicted, measured))
        rows.append(
            {
                "case": label,
                "lambda": lam_mean,
                "with": float(np.mean(errors[True])),
                "without": float(np.mean(errors[False])),
            }
        )
    return rows


def render(rows) -> str:
    return ascii_table(
        ["case", "mean lambda", "error with lambda %", "error without %"],
        [[r["case"], f"{r['lambda']:.2f}", f"{r['with']:.1f}", f"{r['without']:.1f}"] for r in rows],
        title="Ablation: eq. (7) lambda correction",
    )


def check(rows) -> None:
    overlapped = rows[0]
    # Overlapped communication has lambda well below 1; dropping the
    # correction then badly overestimates the communication term.
    assert overlapped["lambda"] < 0.9
    assert overlapped["with"] < overlapped["without"]
    # With the correction, errors stay in the paper's single-digit band.
    for r in rows:
        assert r["with"] < 10.0, r["case"]


# Run on Centurion: its fat backbone keeps self-contention out of
# the picture, isolating the lambda effect itself.
ARTEFACT = Artefact("ablation_lambda", "centurion", run, render, check)

"""Ablation — forecasting choice in the monitoring subsystem.

The Centurion prototype used NWS (adaptive next-period forecasting);
the Orange Grove prototype simply took the latest measurement.  This
ablation drives a noisy, drifting background-load signal through both
monitor styles and compares the resulting snapshot error and the
downstream prediction error of the evaluator.
"""

from __future__ import annotations

import numpy as np

from repro._util import spawn_rng
from repro.core import TaskMapping
from repro.experiments.harness import Artefact
from repro.experiments.report import ascii_table
from repro.monitoring.monitor import SystemMonitor
from repro.workloads import SyntheticBenchmark

KINDS = ["last-value", "mean", "median", "ewma", "ar1", "adaptive"]


def run(ctx):
    cluster = ctx.service.cluster
    app = SyntheticBenchmark(comm_fraction=0.1, duration_s=30.0, steps=6, name="abl.fc")
    alphas = cluster.nodes_by_arch("alpha-533")
    ctx.ensure_profiled(app, 8, mapping=TaskMapping(alphas), seed=4)
    mapping = TaskMapping(alphas)
    victim = alphas[0]
    rng = spawn_rng(97, "abl-forecast")
    # A slowly drifting load signal observed through noisy sensors — the
    # regime NWS forecasting is built for (sensor noise dominates the
    # step-to-step signal change, so smoothing pays off).
    load = 0.35
    trajectory = []
    for _ in range(60):
        load = float(np.clip(0.35 + 0.98 * (load - 0.35) + rng.normal(0, 0.02), 0.0, 1.0))
        trajectory.append(load)

    rows = []
    for kind in KINDS:
        monitor = SystemMonitor(cluster, forecaster=kind, sensor_noise=0.10, seed=11)
        snap_errors, pred_errors = [], []
        for t, level in enumerate(trajectory):
            cluster.node(victim).set_background_load(level)
            monitor.poll()
            if t < 10:
                continue  # warm-up
            snap = monitor.snapshot()
            snap_errors.append(abs(snap.background_load(victim) - level))
            predicted = ctx.service.evaluator(app.name, snapshot=snap).execution_time(mapping)
            truth_snap = snap.with_load(victim, level)
            truth = ctx.service.evaluator(app.name, snapshot=truth_snap).execution_time(mapping)
            pred_errors.append(abs(predicted - truth) / truth * 100)
        cluster.clear_loads()
        rows.append(
            {
                "kind": kind,
                "snap_mae": float(np.mean(snap_errors)),
                "pred_err": float(np.mean(pred_errors)),
            }
        )
    return rows


def render(rows) -> str:
    return ascii_table(
        ["forecaster", "load MAE", "prediction error vs true-load %"],
        [[r["kind"], f"{r['snap_mae']:.3f}", f"{r['pred_err']:.2f}"] for r in rows],
        title="Ablation: monitoring forecaster choice",
    )


def check(rows) -> None:
    by = {r["kind"]: r for r in rows}
    # With sensor noise dominating signal drift, smoothing beats raw
    # last-value, and the adaptive (NWS-style) ensemble finds that out.
    assert by["adaptive"]["snap_mae"] < by["last-value"]["snap_mae"]
    # Snapshot quality propagates monotonically into prediction quality.
    best = min(rows, key=lambda r: r["snap_mae"])
    worst = max(rows, key=lambda r: r["snap_mae"])
    assert best["pred_err"] <= worst["pred_err"] + 0.5


ARTEFACT = Artefact("ablation_forecasting", "orange-grove", run, render, check)

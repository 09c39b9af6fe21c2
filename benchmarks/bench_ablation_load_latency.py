"""Ablation — load-adjusted vs no-load latencies in the communication term.

Section 2: the latency model estimates internode latencies *"by
accounting for the effect of node CPU and NIC load on the no-load
end-to-end latency values."*  This ablation loads some mapped nodes and
compares prediction error with the adjustment on and off.
"""

from __future__ import annotations

import numpy as np

from repro._util import percent_error
from repro.core import EvaluationOptions, TaskMapping
from repro.experiments.harness import Artefact
from repro.experiments.report import ascii_table
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.workloads import SyntheticBenchmark


def run(ctx):
    cluster = ctx.service.cluster
    app = SyntheticBenchmark(
        comm_fraction=0.45, overlap=0.5, duration_s=30.0, steps=10, name="abl.loadlat"
    )
    alphas = cluster.nodes_by_arch("alpha-533")
    ctx.ensure_profiled(app, 8, mapping=TaskMapping(alphas), seed=4)
    mapping = TaskMapping(alphas)
    program = app.program(8)
    generator = LoadGenerator(cluster)
    rows = []
    for cpu, nic in ((0.0, 0.0), (0.4, 0.0), (0.4, 0.5), (0.8, 0.7)):
        events = [LoadEvent(alphas[i], cpu_load=cpu, nic_load=nic) for i in range(3)]
        with generator.loaded(events):
            snapshot = ctx.service.snapshot()
            measured = np.mean(
                [
                    ctx.service.simulator.run(
                        program, mapping.as_dict(), seed=500 + k,
                        arch_affinity=app.arch_affinity, collect_trace=False,
                    ).total_time
                    for k in range(3)
                ]
            )
            adjusted = ctx.service.evaluator(
                app.name, snapshot=snapshot
            ).execution_time(mapping)
            unadjusted = ctx.service.evaluator(
                app.name,
                snapshot=snapshot,
                options=EvaluationOptions(load_adjusted_latency=False),
            ).execution_time(mapping)
        rows.append(
            {
                "cpu": cpu,
                "nic": nic,
                "adjusted": percent_error(adjusted, float(measured)),
                "unadjusted": percent_error(unadjusted, float(measured)),
            }
        )
    return rows


def render(rows) -> str:
    return ascii_table(
        ["cpu load", "nic load", "error w/ adjustment %", "error w/o %"],
        [
            [f"{r['cpu']:.1f}", f"{r['nic']:.1f}", f"{r['adjusted']:.1f}", f"{r['unadjusted']:.1f}"]
            for r in rows
        ],
        title="Ablation: load-adjusted latency L_c vs no-load L_0",
    )


def check(rows) -> None:
    # With no load the two coincide.
    assert abs(rows[0]["adjusted"] - rows[0]["unadjusted"]) < 1.0
    # Under heavy NIC+CPU load, the adjustment matters.
    heavy = rows[-1]
    assert heavy["adjusted"] < heavy["unadjusted"]
    assert heavy["adjusted"] < 15.0


ARTEFACT = Artefact("ablation_load_latency", "orange-grove", run, render, check)

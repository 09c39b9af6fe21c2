"""Table 2 — LU average-case scenario: 100 CS vs 100 NCS runs per zone.

Paper: CS is ~90 % successful at finding minimum-time mappings, NCS
under 3 %; CS's average measured time tracks its average prediction
within a few percent; measured CS-over-NCS speedups 4.8 / 8.7 / 5.5 %.
"""

from __future__ import annotations

from repro.experiments.harness import Artefact, repetitions
from repro.experiments.report import ascii_table
from repro.experiments.scheduling import average_case, lu_zones
from repro.schedulers import AnnealingSchedule
from repro.workloads import LU

#: Average-case runs need a converged SA, like the paper's.
TABLE2_SA = AnnealingSchedule(moves_per_temperature=60, steps=40, patience=12)


def run(ctx):
    nruns = repetitions(10, 100)
    app = LU("A")
    cluster = ctx.service.cluster
    zones = lu_zones(cluster)
    results = []
    for idx, name in enumerate(("high", "medium", "low"), start=1):
        zone = zones[name]
        results.append(
            average_case(
                ctx,
                app,
                zone.pool,
                constraint=zone.constraint(cluster),
                nruns=nruns,
                seed=33,
                case=f"LU ({idx}) {name}",
                schedule=TABLE2_SA,
                hit_tolerance=0.015,
            )
        )
    return results


def render(results) -> str:
    rows = []
    for r in results:
        for side in (r.ncs, r.cs):
            rows.append(
                [
                    r.case,
                    side.scheduler,
                    f"{side.predicted.mean:.1f}",
                    f"{side.hit_percent:.0f}",
                    f"{side.measured.mean:.1f}",
                    f"{side.measured.ci95:.1f}",
                ]
            )
        rows.append(
            [
                "",
                "speedup",
                f"exp {r.expected_speedup_percent:.1f}%",
                "",
                f"meas {r.measured_speedup_percent:.1f}%",
                f"max {r.maximum_speedup_percent:.1f}%",
            ]
        )
    return ascii_table(
        ["case", "sched", "avg predicted (s)", "hits %", "avg measured (s)", "±95%"],
        rows,
        title="Table 2: LU average case scenario",
    )


def check(results) -> None:
    for r in results:
        # CS finds minimum-time mappings far more reliably than NCS...
        assert r.cs.hit_percent >= r.ncs.hit_percent
        # ...and its selections measure faster on average.
        assert r.cs.measured.mean <= r.ncs.measured.mean
        assert r.measured_speedup_percent >= 1.0, r.case
    # On the homogeneous high-speed zone CS is reliably near-optimal.
    assert results[0].cs.hit_percent >= 50.0


ARTEFACT = Artefact("table2", "orange-grove", run, render, check)

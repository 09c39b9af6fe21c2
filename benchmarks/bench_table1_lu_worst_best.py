"""Table 1 — LU worst-vs-best case scenario per Orange Grove zone.

Paper: maximum potential within-zone speedups of 5.3 % (high-speed
group), 9.3 % (medium), 6.0 % (low); best times ~208 / 236 / 308 s; the
cross-zone best-vs-worst bound reaches 36.6 %.
"""

from __future__ import annotations

from repro.experiments.harness import Artefact, repetitions
from repro.experiments.report import ascii_table
from repro.experiments.scheduling import lu_zones, worst_vs_best
from repro.workloads import LU

from conftest import BENCH_SA


def run(ctx):
    runs = repetitions(3, 5)
    app = LU("A")
    cluster = ctx.service.cluster
    zones = lu_zones(cluster)
    results = []
    for idx, name in enumerate(("high", "medium", "low"), start=1):
        zone = zones[name]
        results.append(
            worst_vs_best(
                ctx,
                app,
                zone.pool,
                constraint=zone.constraint(cluster),
                runs=runs,
                seed=21,
                case=f"LU ({idx}) {name}-speed group",
                schedule=BENCH_SA,
            )
        )
    return results


def cross_zone(results) -> float:
    """Cross-zone maximum speedup (vs a random scheduler over all zones)."""
    high, _, low = results
    return (low.worst.mean - high.best.mean) / low.worst.mean * 100.0


def render(results) -> str:
    table = ascii_table(
        ["test case", "worst (s)", "±", "best (s)", "±", "speedup %", "sched time (s)"],
        [
            [
                r.case,
                f"{r.worst.mean:.1f}",
                f"{r.worst.ci95:.1f}",
                f"{r.best.mean:.1f}",
                f"{r.best.ci95:.1f}",
                f"{r.speedup_percent:.1f}",
                f"{r.scheduler_time_s:.1f}",
            ]
            for r in results
        ],
        title="Table 1: LU worst vs best case scenario",
    )
    return f"{table}\ncross-zone best-vs-worst speedup: {cross_zone(results):.1f}% (paper: 36.6%)"


def check(results) -> None:
    high, medium, low = results
    # Zone ordering (figure 6 bands).
    assert high.best.mean < medium.best.mean < low.best.mean
    # Within-zone speedups in the paper's 3-15 % band, none uncertain.
    for r in results:
        assert 2.0 <= r.speedup_percent <= 20.0, r.case
        assert not r.uncertain
    cross = cross_zone(results)
    assert 25.0 <= cross <= 50.0


ARTEFACT = Artefact("table1", "orange-grove", run, render, check)

"""Section 6.2 (text) — scheduler overhead vs profile complexity.

Paper: one major factor in scheduler time is the complexity of the
application's communication pattern, because the SA search evaluates
large numbers of mappings and each evaluation walks the profile's
message groups.  For short-lived programs (smg2000's small case) the
scheduler can cost more than the run saves; long-lived or repeated runs
amortize it.
"""

from __future__ import annotations

from repro.experiments.harness import Artefact
from repro.experiments.report import ascii_table
from repro.schedulers import AnnealingSchedule, CbesScheduler
from repro.workloads import EP, SAMRAI, SMG2000, Aztec

SA = AnnealingSchedule(moves_per_temperature=40, steps=20, patience=20)

#: Cases in increasing communication-pattern complexity.
CASES = [
    ("EP-A (no comm)", lambda: EP("A")),
    ("Aztec (halo)", lambda: Aztec(500)),
    ("smg2000-12 (multigrid)", lambda: SMG2000(12)),
    ("SAMRAI (all-to-all)", lambda: SAMRAI()),
]


def run(ctx):
    pool = ctx.service.cluster.nodes_by_arch("pii-400")
    rows = []
    for label, factory in CASES:
        app = factory()
        profile = ctx.ensure_profiled(app, 8, seed=3)
        groups = sum(len(p.sends) + len(p.recvs) for p in profile.processes)
        result = ctx.service.schedule(app.name, CbesScheduler(schedule=SA), pool, seed=3)
        run_time = ctx.measure(app, result.mapping, runs=1, seed=5).mean
        rows.append(
            {
                "case": label,
                "groups": groups,
                "evals": result.evaluations,
                "sched_s": result.wall_time_s,
                "per_eval_us": result.wall_time_s / max(result.evaluations, 1) * 1e6,
                "run_s": run_time,
            }
        )
    return rows


def render(rows) -> str:
    return ascii_table(
        ["case", "message groups", "SA evals", "scheduler (s)", "per-eval (us)", "app run (s)"],
        [
            [
                r["case"],
                r["groups"],
                r["evals"],
                f"{r['sched_s']:.2f}",
                f"{r['per_eval_us']:.0f}",
                f"{r['run_s']:.1f}",
            ]
            for r in rows
        ],
        title="Scheduler overhead vs communication-pattern complexity",
    )


def check(rows) -> None:
    by_case = {r["case"]: r for r in rows}
    # Per-evaluation cost grows with the number of message groups.
    assert (
        by_case["SAMRAI (all-to-all)"]["per_eval_us"]
        > by_case["EP-A (no comm)"]["per_eval_us"]
    )
    # Complexity ordering holds for the group counts themselves.
    assert by_case["SAMRAI (all-to-all)"]["groups"] > by_case["Aztec (halo)"]["groups"]
    assert by_case["Aztec (halo)"]["groups"] > by_case["EP-A (no comm)"]["groups"]


ARTEFACT = Artefact("scheduler_overhead", "orange-grove", run, render, check)

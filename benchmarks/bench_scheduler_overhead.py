"""Section 6.2 (text) — scheduler overhead vs profile complexity.

Paper: one major factor in scheduler time is the complexity of the
application's communication pattern, because the SA search evaluates
large numbers of mappings and each evaluation walks the profile's
message groups.  For short-lived programs (smg2000's small case) the
scheduler can cost more than the run saves; long-lived or repeated runs
amortize it.

The table's timings are one search each, a context build included.  The
check that SAMRAI's evaluations cost more than EP-A's is judged the way
every bench-guard timing gate is, by ``GateReport.paired`` (``_gate.py``):
repeated searches of the two, paired, on cached contexts.
"""

from __future__ import annotations

from _gate import GateReport

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


def per_eval(ctx, app_name: str, pool: list[str]):
    """A pass: one seeded search of *app_name*, wall seconds per evaluation."""

    def search() -> float:
        result = ctx.service.schedule(app_name, CbesScheduler(schedule=SA), pool, seed=3)
        return result.wall_time_s / max(result.evaluations, 1)

    return search


def run(ctx):
    """``(rows, paired)``: the table, and EP-A's per-evaluation cost over SAMRAI's."""
    pool = ctx.service.cluster.nodes_by_arch("pii-400")
    rows, names = [], {}
    for label, factory in CASES:
        app = factory()
        names[label] = app.name
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
    paired = GateReport("scheduler_overhead").paired(
        "ep_over_samrai_per_eval",
        per_eval(ctx, names["EP-A (no comm)"], pool),
        per_eval(ctx, names["SAMRAI (all-to-all)"], pool),
        1.0,
        "lower",
        "EP-A's evaluations against SAMRAI's: cost does not grow with message groups",
    )
    return rows, paired


def render(result) -> str:
    rows, _ = result
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


def check(result) -> None:
    rows, paired = result
    by_case = {r["case"]: r for r in rows}
    # Per-evaluation cost grows with the number of message groups.
    assert paired.passed, (
        f"EP-A's evaluations cost {paired.ratio:.2f}x SAMRAI's "
        f"[{paired.low:.2f}, {paired.high:.2f}] over {paired.pairs} pairs (must be <= 1)"
    )
    # Complexity ordering holds for the group counts themselves.
    assert by_case["SAMRAI (all-to-all)"]["groups"] > by_case["Aztec (halo)"]["groups"]
    assert by_case["Aztec (halo)"]["groups"] > by_case["EP-A (no comm)"]["groups"]


ARTEFACT = Artefact("scheduler_overhead", "orange-grove", run, render, check)

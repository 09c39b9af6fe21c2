"""Table 3 — worst vs best case for the HPL + ASCI Purple selection.

Paper (on homogeneous node subsets, so only communication matters):

=============  ==========  ==========  =========  ==================
case           worst (s)   best (s)    speedup    note
=============  ==========  ==========  =========  ==================
HPL(1) 500     1.3         1.2         —          uncertain
HPL(2) 5000    80.2        70.6        11.9 %
HPL(3) 10000   466.7       435.9       6.6 %
sweep3d        9.4         9.3         —          uncertain
smg2000 12^3   17.3        16.4        5.6 %
smg2000 50^3   72.0        66.7        7.4 %
smg2000 60^3   127.3       115.1       9.6 %
SAMRAI         7.7         7.6         —          uncertain
Towhee         46.4        46.4        —          uncertain
Aztec          90.7        80.9        10.8 %
=============  ==========  ==========  =========  ==================
"""

from __future__ import annotations

from repro.experiments.harness import Artefact, repetitions
from repro.experiments.report import ascii_table
from repro.experiments.scheduling import worst_vs_best
from repro.workloads import HPL, SAMRAI, SMG2000, Aztec, Sweep3D, Towhee

from conftest import BENCH_SA

#: (label, factory, paper-uncertain?)
TABLE3_CASES = [
    ("HPL (1) n=500", lambda: HPL(500, nb=125), True),
    ("HPL (2) n=5000", lambda: HPL(5000), False),
    ("HPL (3) n=10000", lambda: HPL(10000), False),
    ("sweep3d", lambda: Sweep3D(), True),
    ("smg2000 (1) 12^3", lambda: SMG2000(12), False),
    ("smg2000 (2) 50^3", lambda: SMG2000(50), False),
    ("smg2000 (3) 60^3", lambda: SMG2000(60), False),
    ("SAMRAI", lambda: SAMRAI(), True),
    ("Towhee", lambda: Towhee(), True),
    ("Aztec", lambda: Aztec(500), False),
]


def run(ctx):
    runs = repetitions(3, 5)
    # Homogeneous pool: the 12 Intel nodes, as only they are numerous
    # enough for meaningful 8-node mapping choice.
    pool = ctx.service.cluster.nodes_by_arch("pii-400")
    results = []
    for label, factory, uncertain in TABLE3_CASES:
        app = factory()
        result = worst_vs_best(
            ctx, app, pool, runs=runs, seed=57, case=label, schedule=BENCH_SA
        )
        results.append((result, uncertain))
    return results


def render(results) -> str:
    return ascii_table(
        ["test case", "worst (s)", "±", "best (s)", "±", "speedup %", "comment"],
        [
            [
                r.case,
                f"{r.worst.mean:.1f}",
                f"{r.worst.ci95:.1f}",
                f"{r.best.mean:.1f}",
                f"{r.best.ci95:.1f}",
                f"{r.speedup_percent:.1f}",
                "uncertain speedup" if r.uncertain else "",
            ]
            for r, _ in results
        ],
        title="Table 3: other tests, worst vs best case scenario",
    )


def check(results) -> None:
    for r, paper_uncertain in results:
        if r.case.startswith("HPL (1)"):
            # The paper marks HPL(1) uncertain because "the short
            # execution duration exaggerates the differences": the
            # percentages are meaningless on a sub-2-second run.
            assert r.best.mean < 2.0
            continue
        if paper_uncertain:
            # Mapping-insensitive apps: no meaningful gap to exploit.
            assert r.speedup_percent < 6.0, r.case
        else:
            # Schedulable apps: a clear communication-driven gap, in
            # the paper's 5-12 % band (we allow 2-20 at reduced scale).
            assert 2.0 < r.speedup_percent < 20.0, r.case
            assert not r.uncertain, r.case


ARTEFACT = Artefact("table3", "orange-grove", run, render, check)

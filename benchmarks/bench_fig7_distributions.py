"""Figure 7 — predicted-time distributions of CS vs NCS for LU(3).

Paper: over 100 runs each on the low-speed zone, the CS results are
strongly skewed towards the minimum-time mappings while the NCS results
are skewed towards the nearly-worst mappings, explaining the hit-rate
gap of table 2.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import Artefact, repetitions
from repro.experiments.report import text_histogram
from repro.experiments.scheduling import average_case, lu_zones
from repro.workloads import LU

from conftest import BENCH_SA


def run(ctx):
    nruns = repetitions(12, 100)
    cluster = ctx.service.cluster
    zone = lu_zones(cluster)["low"]
    return average_case(
        ctx,
        LU("A"),
        zone.pool,
        constraint=zone.constraint(cluster),
        nruns=nruns,
        seed=47,
        case="LU(3)",
        schedule=BENCH_SA,
    )


def render(result) -> str:
    cs = text_histogram(result.cs.predicted_times, bins=10, label="CS predicted times (s)")
    ncs = text_histogram(result.ncs.predicted_times, bins=10, label="NCS predicted times (s)")
    return f"{cs}\n\n{ncs}"


def check(result) -> None:
    cs = np.asarray(result.cs.predicted_times)
    ncs = np.asarray(result.ncs.predicted_times)
    # CS's distribution sits at the fast end of NCS's.
    assert cs.mean() < ncs.mean()
    assert np.median(cs) <= np.percentile(ncs, 35)
    # CS is concentrated (skewed to the minimum); NCS spread out.
    assert cs.std() <= ncs.std() + 1e-9


ARTEFACT = Artefact("figure7", "orange-grove", run, render, check)

"""Fidelity — cross-mapping prediction fidelity for LU on Orange Grove.

Over 30 random placements of LU-A's 8 ranks on the Alpha group, the
predicted time must track the measured one: on the *federated* Orange
Grove the per-pair formula cannot see self-contention on the federation
link, so the claim (EXPERIMENTS.md) is the cross-mapping band — mean
absolute error under 10 %, no mapping beyond ~15 % — and a clearly
positive linear and rank correlation, not the few-percent error of a
single well-placed mapping.
"""

from __future__ import annotations

from statistics import correlation, fmean

from repro._util import percent_error, spawn_rng
from repro.core import TaskMapping
from repro.experiments.harness import Artefact
from repro.workloads import LU

MAPPINGS = 30


def ranks(values) -> list[int]:
    """Position of each value in sorted order."""
    out = [0] * len(values)
    for rank, index in enumerate(sorted(range(len(values)), key=values.__getitem__)):
        out[index] = rank
    return out


def run(ctx):
    app = LU("A")
    service = ctx.service
    alphas = service.cluster.nodes_by_arch("alpha-533")
    evaluator = service.evaluator(app.name)
    program = app.program(8)
    rng = spawn_rng(5, "fid")
    predicted, measured = [], []
    for i in range(MAPPINGS):
        mapping = TaskMapping([alphas[k] for k in rng.permutation(8)])
        predicted.append(evaluator.predict(mapping).execution_time)
        measured.append(
            service.simulator.run(
                program, mapping.as_dict(), seed=200 + i, arch_affinity=app.arch_affinity
            ).total_time
        )
    errors = [percent_error(p, m) for p, m in zip(predicted, measured)]
    return {
        "predicted": predicted,
        "measured": measured,
        "err_mean": fmean(errors),
        "err_max": max(errors),
        "pearson": correlation(predicted, measured),
        "rank": correlation(ranks(predicted), ranks(measured)),
    }


def render(r) -> str:
    meas, pred = r["measured"], r["predicted"]
    return (
        f"Fidelity: LU-A over {len(meas)} placements on the Alpha group\n"
        f"measured:  {min(meas):.1f}..{max(meas):.1f} s "
        f"(spread {(max(meas) - min(meas)) / max(meas) * 100:.1f}%)\n"
        f"predicted: {min(pred):.1f}..{max(pred):.1f} s\n"
        f"abs error: mean {r['err_mean']:.1f}% max {r['err_max']:.1f}%\n"
        f"correlation: pearson {r['pearson']:.3f} rank {r['rank']:.3f}"
    )


def check(r) -> None:
    assert r["err_mean"] < 10.0
    assert r["err_max"] < 16.0
    # Faster-predicted placements are, by and large, the faster ones.
    assert r["pearson"] > 0.6
    assert r["rank"] > 0.6


ARTEFACT = Artefact("fidelity", "orange-grove", run, render, check)

"""Section 6 (text) — internode latency heterogeneity of the testbeds.

Paper: latency differences up to ~13 % on the largely homogeneous
Centurion and as high as 54 % on the strongly heterogeneous Orange
Grove — the raw material the CS scheduler exploits.  Also checks the
O(N)-rounds property of the clique-scheduled calibration and the
calibrated model's agreement with ground truth.
"""

from __future__ import annotations

from repro.cluster import centurion, orange_grove
from repro.cluster.latency import LatencyModel
from repro.experiments.harness import Artefact
from repro.experiments.report import ascii_table


def run(_ctx):
    rows = []
    for builder in (centurion, orange_grove):
        cluster = builder()
        report = cluster.calibrate(seed=5)
        exact = LatencyModel.from_fabric(cluster.fabric, cluster.nodes)
        worst_fit = 0.0
        for src, dst in exact.pairs()[:: max(1, len(exact.pairs()) // 200)]:
            for size in (64, 4096, 262144):
                a = cluster.latency_model.no_load(src, dst, size)
                b = exact.no_load(src, dst, size)
                worst_fit = max(worst_fit, abs(a - b) / b)
        rows.append(
            {
                "cluster": cluster.name,
                "nodes": cluster.size,
                "spread_small": cluster.latency_model.spread(64)[2],
                "spread_1k": cluster.latency_model.spread(1024)[2],
                "rounds": report.rounds,
                "pairs": report.pair_benchmarks,
                "clique_speedup": report.parallel_speedup,
                "fit_err": worst_fit,
            }
        )
    return rows


def render(rows) -> str:
    return ascii_table(
        ["cluster", "nodes", "spread @64B", "spread @1KB", "rounds", "pairs", "clique speedup", "fit err"],
        [
            [
                r["cluster"],
                r["nodes"],
                f"{r['spread_small'] * 100:.1f}%",
                f"{r['spread_1k'] * 100:.1f}%",
                r["rounds"],
                r["pairs"],
                f"{r['clique_speedup']:.1f}x",
                f"{r['fit_err'] * 100:.2f}%",
            ]
            for r in rows
        ],
        title="Internode latency heterogeneity (paper: ~13% Centurion, ~54% Orange Grove)",
    )


def check(rows) -> None:
    cent, og = rows
    assert 0.08 <= cent["spread_small"] <= 0.18  # ~13 %
    assert 0.40 <= max(og["spread_small"], og["spread_1k"]) <= 0.62  # ~54 %
    # O(N) rounds: Centurion's 8128 pairs calibrate in ~127 rounds.
    assert cent["rounds"] <= cent["nodes"]
    assert cent["clique_speedup"] > 30
    # The fitted model tracks ground truth within a few percent.
    assert cent["fit_err"] < 0.05 and og["fit_err"] < 0.05


# Builds (and calibrates with its own seed) both testbeds itself.
ARTEFACT = Artefact("latency_spread", "", run, render, check)

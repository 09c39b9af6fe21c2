"""Benchmark: batched ``evaluate_many`` vs per-mapping evaluation.

Measures population-scoring throughput of the batched kernel (the path
GA generations, portfolio seed scans, and candidate sweeps go through)
against the per-mapping stateless fast path, while checking that the
batch equals element-wise the reference ``predict()`` (zero difference)
and that the two batch backends (pure python and numpy) are
bit-identical under every one of the 16 ``EvaluationOptions`` toggle
combinations.

Run modes
---------
``python benchmarks/bench_batch_eval.py``
    Full benchmark: 64 nodes / 32 ranks, populations of 256; reports
    the numpy batch kernel's speedup over the per-mapping loop against
    its 10x target without gating on it — on a shared host the figure
    straddles the threshold run to run (8.0x, 10.0x, 13.1x in three
    alternated runs of one commit), which takes a committed baseline
    to judge (ROADMAP item 3), not a constant.

``python benchmarks/bench_batch_eval.py --quick``
    CI smoke mode: 16 nodes / 8 ranks, populations of 64; the speedup
    gate relaxes to "not slower" for the python backend and 2x for
    numpy, so the smoke run passes on any machine.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import os
import sys
import time

from _gate import GateReport
from bench_incremental_eval import build_workload

from repro._util import spawn_rng
from repro.core.evaluation import EvaluationOptions
from repro.core.mapping import TaskMapping

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: Every combination of the four evaluation toggles (the list
#: ``tests/conftest.py`` runs the kernel suites over).
OPTION_COMBOS = [
    EvaluationOptions(*toggles) for toggles in itertools.product((True, False), repeat=4)
]
#: Mappings of the population the backend-equality sweep scores per combination.
EQUALITY_POPULATION = 32


def random_population(node_ids: list[str], nprocs: int, count: int, seed: int):
    rng = spawn_rng(seed, "bench-batch-pop")
    return [
        TaskMapping([node_ids[rng.choice(len(node_ids))] for _ in range(nprocs)])
        for _ in range(count)
    ]


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run(nnodes: int, nprocs: int, popsize: int, repeats: int):
    evaluator, node_ids = build_workload(nnodes, nprocs)
    population = random_population(node_ids, nprocs, popsize, seed=9)
    context = evaluator.fast_context()

    # -- agreement: batch vs reference predict(), element-wise ---------
    energies = context.evaluate_many(population)
    worst = max(
        abs(energy - evaluator.predict(mapping).execution_time)
        for mapping, energy in zip(population, energies)
    )

    # -- backend equality (bit-identical) when numpy is present, under
    # every toggle combination: a toggle is a table substitution in the
    # context, so none may split the backends.
    split = []
    if HAVE_NUMPY:
        small = population[:EQUALITY_POPULATION]
        try:
            for options in OPTION_COMBOS:
                toggled = evaluator.fast_context(options)
                os.environ["REPRO_EVAL_BACKEND"] = "python"
                py = toggled.evaluate_many(small)
                os.environ["REPRO_EVAL_BACKEND"] = "numpy"
                if toggled.evaluate_many(small) != py:
                    split.append(options)
        finally:
            os.environ.pop("REPRO_EVAL_BACKEND", None)

    # -- throughput ----------------------------------------------------
    inc = evaluator.incremental()

    def loop():
        for mapping in population:
            inc(mapping)

    def batch():
        context.evaluate_many(population)

    loop_s = best_time(loop, repeats)
    batch_s = best_time(batch, repeats)
    return {
        "loop_rate": popsize / loop_s,
        "batch_rate": popsize / batch_s,
        "speedup": loop_s / batch_s,
        "worst_disagreement": worst,
        "backend_split": split,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small instance, relaxed speedup gate",
    )
    args = parser.parse_args(argv)

    backend = "numpy" if HAVE_NUMPY else "python"
    if args.quick:
        nnodes, nprocs, popsize, repeats = 16, 8, 64, 20
        target = 2.0 if backend == "numpy" else 0.8
    else:
        nnodes, nprocs, popsize, repeats = 64, 32, 256, 10
        target = 10.0

    report = GateReport("batch_eval", mode="quick" if args.quick else "full")
    report.metric("nnodes", nnodes)
    report.metric("nprocs", nprocs)
    report.metric("population", popsize)
    report.metric("backend", backend)

    results = run(nnodes, nprocs, popsize, repeats)
    report.metric("loop_rate_per_s", round(results["loop_rate"], 1))
    report.metric("batch_rate_per_s", round(results["batch_rate"], 1))
    report.metric("speedup", round(results["speedup"], 3))
    report.metric("worst_disagreement", results["worst_disagreement"])
    report.metric("backend_split_combos", len(results["backend_split"]))

    print(f"workload: {nnodes} nodes / {nprocs} ranks, populations of {popsize}")
    print(f"batch backend:           {backend:>10}")
    print(f"per-mapping loop:        {results['loop_rate']:10.0f} evaluations/s")
    print(f"batched evaluate_many:   {results['batch_rate']:10.0f} evaluations/s")
    print(
        f"speedup:                 {results['speedup']:10.1f}x   "
        f"(target >= {target:.1f}x{'' if args.quick else ', reported, not gated'})"
    )
    print(
        f"backends bit-identical:  {len(OPTION_COMBOS) - len(results['backend_split']):10d}"
        f"   of {len(OPTION_COMBOS)} toggle combinations"
        + ("" if HAVE_NUMPY else " (numpy absent: not compared)")
    )
    print(
        f"worst disagreement:      {results['worst_disagreement']:10.2e}"
        "   (must be 0: same association)"
    )

    report.gate(
        "agreement",
        results["worst_disagreement"] == 0.0,
        f"batch vs predict() disagreement {results['worst_disagreement']:.2e} (must be 0.0)",
    )
    report.gate(
        "backend_equality",
        not results["backend_split"],
        f"python and numpy backends returned different energies under {results['backend_split']}",
    )
    if args.quick:
        report.gate(
            "speedup",
            results["speedup"] >= target,
            f"batch speedup {results['speedup']:.2f}x below target {target:.1f}x",
        )
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

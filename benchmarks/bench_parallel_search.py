"""Benchmark: parallel portfolio search vs the serial restart loop.

Runs the CS scheduler's SA restart portfolio at ``parallel=1`` and
``parallel=N`` on the synthetic 64-node / 32-rank workload of
``bench_incremental_eval.py`` and reports the wall-clock speedup, while
asserting the determinism contract: both degrees must return the *same*
mapping and the same evaluation count for one master seed.

The speedup target is core-aware: the nominal goal is >= 3x at 4
workers, but that is only physically reachable with >= 4 schedulable
CPUs.  On smaller machines (CI containers are often 1-2 cores) the
benchmark still runs — and still enforces determinism — but scales the
enforced target down to what the hardware can express.

Run modes
---------
``python benchmarks/bench_parallel_search.py``
    Full benchmark: 64 nodes / 32 ranks, 8 restarts, 4 workers.

``python benchmarks/bench_parallel_search.py --quick``
    CI smoke mode: 16 nodes / 8 ranks, 4 restarts, 2 workers; enforces
    determinism and completion, reports the speedup without a target.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from _gate import GateReport
from bench_incremental_eval import build_workload

from repro.schedulers import make_scheduler
from repro.schedulers.annealing import AnnealingSchedule


def schedulable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def target_for(workers: int, cores: int) -> float | None:
    """The enforced speedup floor given the machine's real parallelism."""
    usable = min(workers, cores)
    if usable >= 4:
        return 3.0
    if usable >= 2:
        return 1.3
    return None  # serial hardware: determinism is the only contract


def run_once(nnodes: int, nprocs: int, restarts: int, parallel: int, schedule: AnnealingSchedule):
    evaluator, node_ids = build_workload(nnodes, nprocs)
    scheduler = make_scheduler(
        "cs", restarts=restarts, schedule=schedule, parallel=parallel
    )
    started = time.perf_counter()
    result = scheduler.schedule(evaluator, node_ids, seed=1234)
    elapsed = time.perf_counter() - started
    return result, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small instance, 2 workers, no speedup target",
    )
    parser.add_argument("--workers", type=int, default=None, help="parallel degree to test")
    args = parser.parse_args(argv)

    if args.quick:
        nnodes, nprocs, restarts = 16, 8, 4
        workers = args.workers or 2
        # Light but fixed-length chains (patience == steps disables the
        # early stop, so both degrees do identical work).
        schedule = AnnealingSchedule(moves_per_temperature=20, steps=12, patience=12)
    else:
        nnodes, nprocs, restarts = 64, 32, 8
        workers = args.workers or 4
        schedule = AnnealingSchedule(moves_per_temperature=60, steps=40, patience=40)

    cores = schedulable_cpus()
    target = None if args.quick else target_for(workers, cores)

    serial_result, serial_s = run_once(nnodes, nprocs, restarts, 1, schedule)
    parallel_result, parallel_s = run_once(nnodes, nprocs, restarts, workers, schedule)
    speedup = serial_s / parallel_s

    report = GateReport("parallel_search", mode="quick" if args.quick else "full")
    report.metric("nnodes", nnodes)
    report.metric("restarts", restarts)
    report.metric("workers", workers)
    report.metric("cores", cores)
    report.metric("serial_s", round(serial_s, 3))
    report.metric("parallel_s", round(parallel_s, 3))
    report.metric("speedup", round(speedup, 3))
    report.count("evaluations", serial_result.evaluations)
    report.gate(
        "same_mapping",
        serial_result.mapping == parallel_result.mapping,
        "parallel portfolio returned a different mapping than serial",
    )
    report.gate(
        "same_evaluations",
        serial_result.evaluations == parallel_result.evaluations,
        "evaluation counts diverge "
        f"({serial_result.evaluations} vs {parallel_result.evaluations})",
    )
    report.gate(
        "same_prediction",
        abs(serial_result.predicted_time - parallel_result.predicted_time) <= 1e-12,
        "predicted times diverge between parallel degrees",
    )
    if target is not None:
        report.gate(
            "speedup",
            speedup >= target,
            f"speedup {speedup:.2f}x below target {target:.1f}x",
        )
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

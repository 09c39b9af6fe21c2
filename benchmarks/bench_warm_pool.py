"""Benchmark: warm worker pool and service fast path vs the cold paths.

Two measurements, each with a hard gate in full mode:

1. **Warm vs cold scheduling.**  Repeated parallel ``schedule()`` calls
   on the 64-node / 32-rank workload, comparing the warm path (the
   persistent :mod:`repro.search.pool` worker pool stays up between
   calls and workers hit their fingerprint-keyed context cache) against
   the cold path (``shutdown_pool()`` before every call, so each one
   pays worker spawn + spec shipping + context build).  The search
   itself is deliberately light so the fixed per-call overhead — the
   thing the warm pool removes — dominates.  Gate: warm >= 3x cold.

2. **Batch vs serial job submission.**  N predict jobs pushed into the
   scheduling daemon as one ``POST /v1/jobs:batch`` request vs N serial
   ``POST /v1/jobs`` requests (both over one keep-alive connection).
   Gate: batch submission >= 2x faster.

Both sections double as consistency checks: warm, cold, and serial
(``parallel=1``) schedules must return byte-identical mappings,
predictions and evaluation counts, and batch-submitted jobs must
produce exactly the results of serially submitted ones.

Run modes
---------
``python benchmarks/bench_warm_pool.py``
    Full benchmark: 64 nodes / 32 ranks, 4 workers, 64-job batch;
    enforces the 3x / 2x speedup gates (scaled down on starved CI
    hardware) plus all consistency gates.

``python benchmarks/bench_warm_pool.py --quick``
    CI smoke mode: 16 nodes / 8 ranks, 2 workers, 8-job batch; enforces
    only the consistency gates and reports the speedups.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from _gate import GateReport
from bench_incremental_eval import build_workload
from bench_server_throughput import build_service, pools

from repro.schedulers import make_scheduler
from repro.schedulers.annealing import AnnealingSchedule
from repro.search import shutdown_pool

AGREEMENT_TOL = 1e-12


def schedulable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def result_key(result):
    return (result.mapping.as_tuple(), result.predicted_time, result.evaluations)


def schedule_once(evaluator, node_ids, *, parallel: int, schedule: AnnealingSchedule,
                  restarts: int) -> tuple[tuple, float]:
    scheduler = make_scheduler("cs", restarts=restarts, schedule=schedule, parallel=parallel)
    started = time.perf_counter()
    result = scheduler.schedule(evaluator, node_ids, seed=421)
    return result_key(result), time.perf_counter() - started


def bench_warm_vs_cold(report: GateReport, *, quick: bool) -> None:
    nnodes, nprocs = (16, 8) if quick else (64, 32)
    workers = 2 if quick else 4
    repeats = 2 if quick else 3
    restarts = workers
    # Light, fixed-length chains: the point is per-call overhead, and
    # patience == steps keeps every path doing identical work.
    schedule = AnnealingSchedule(moves_per_temperature=8, steps=6, patience=6)
    evaluator, node_ids = build_workload(nnodes, nprocs)

    run = lambda parallel: schedule_once(  # noqa: E731
        evaluator, node_ids, parallel=parallel, schedule=schedule, restarts=restarts
    )

    cold_s, cold_keys = [], []
    for _ in range(repeats):
        shutdown_pool()
        key, elapsed = run(workers)
        cold_s.append(elapsed)
        cold_keys.append(key)

    shutdown_pool()
    run(workers)  # prime: spawn the pool and fill the worker caches
    warm_s, warm_keys = [], []
    for _ in range(repeats):
        key, elapsed = run(workers)
        warm_s.append(elapsed)
        warm_keys.append(key)

    serial_key, _ = run(1)
    shutdown_pool()

    cold = statistics.median(cold_s)
    warm = statistics.median(warm_s)
    speedup = cold / warm
    cores = schedulable_cpus()

    print(f"schedule: {nnodes} nodes / {nprocs} ranks, {restarts} restarts, "
          f"{workers} workers, {repeats} repeats ({cores} CPUs)")
    print(f"cold (pool respawned per call): {cold * 1e3:8.1f} ms")
    print(f"warm (persistent pool):         {warm * 1e3:8.1f} ms")
    print(f"warm-pool speedup:              {speedup:8.2f}x")

    report.metric("schedule_nnodes", nnodes)
    report.metric("schedule_workers", workers)
    report.metric("cold_ms", round(cold * 1e3, 2))
    report.metric("warm_ms", round(warm * 1e3, 2))
    report.metric("warm_speedup", round(speedup, 3))
    identical = set(cold_keys) | set(warm_keys) | {serial_key}
    report.gate(
        "warm_identical_results",
        len(identical) == 1,
        "warm / cold / serial schedules returned differing results "
        f"({len(identical)} distinct outcomes)",
    )
    if not quick:
        # Spawn + context-build overhead does not need parallel
        # hardware, but a starved runner slows everything; soften the
        # floor rather than skip the gate entirely.
        target = 3.0 if cores >= 2 else 1.5
        report.gate(
            "warm_speedup",
            speedup >= target,
            f"warm speedup {speedup:.2f}x below target {target:.1f}x",
        )


def bench_batch_vs_serial(report: GateReport, *, quick: bool) -> None:
    from repro.server import DaemonThread

    nnodes, nprocs = (6, 3) if quick else (16, 8)
    njobs = 8 if quick else 64

    service, app_name = build_service(nnodes, nprocs)
    mappings = pools(service, nprocs, njobs)
    docs = [{"kind": "predict", "app": app_name, "nodes": nodes} for nodes in mappings]

    with DaemonThread(service, workers=2, queue_limit=2 * njobs + 4, job_ttl_s=3600.0) as srv:
        client = srv.client()
        client.healthz()  # open the pooled connection before timing

        started = time.perf_counter()
        serial_ids = [client.submit(**doc)["id"] for doc in docs]
        serial_s = time.perf_counter() - started
        serial_results = client.wait_many(serial_ids, timeout_s=300.0)

        started = time.perf_counter()
        batch_ids = [job["id"] for job in client.submit_batch(docs)]
        batch_s = time.perf_counter() - started
        batch_results = client.wait_many(batch_ids, timeout_s=300.0)

    serial_times = [job["result"]["execution_time"] for job in serial_results]
    batch_times = [job["result"]["execution_time"] for job in batch_results]
    disagreements = sum(
        1 for a, b in zip(serial_times, batch_times, strict=True) if abs(a - b) > AGREEMENT_TOL
    )
    speedup = serial_s / batch_s

    print(f"submission: {njobs} predict jobs")
    print(f"serial submits (keep-alive): {serial_s * 1e3:8.1f} ms")
    print(f"one batch request:           {batch_s * 1e3:8.1f} ms")
    print(f"batch-submit speedup:        {speedup:8.2f}x  ({disagreements} disagreements)")

    report.metric("batch_jobs", njobs)
    report.metric("serial_submit_ms", round(serial_s * 1e3, 2))
    report.metric("batch_submit_ms", round(batch_s * 1e3, 2))
    report.metric("batch_speedup", round(speedup, 3))
    report.gate(
        "batch_identical_results",
        disagreements == 0,
        f"{disagreements} batch job results disagree with serial submissions",
    )
    if not quick:
        report.gate(
            "batch_speedup",
            speedup >= 2.0,
            f"batch submission {speedup:.2f}x below the 2x target",
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode (small instance)")
    args = parser.parse_args(argv)

    report = GateReport("warm_pool", mode="quick" if args.quick else "full")
    bench_warm_vs_cold(report, quick=args.quick)
    bench_batch_vs_serial(report, quick=args.quick)
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

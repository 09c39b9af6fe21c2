"""Benchmark: cost of the telemetry layer on the scheduling hot path.

The contract (docs/OBSERVABILITY.md): instrumentation is batched — search
loops count into local integers and touch the ambient registry once per
run — so running a full SA schedule with a *live* ``MetricsRegistry``
must stay within 5% of the disabled (``NullRegistry``) throughput, and
disabling telemetry must cost essentially nothing.  Every schedule runs
inside a trace, so both modes record the schedule's spans.

The gate judges disabled time / enabled time by the paired ratio rule
of ``_gate.py``: pair ``k`` runs the schedule of seed ``k`` once per
mode, back to back, and pairs are drawn until the median's ~95 %
interval clears the bound.  A microbenchmark of the primitive
operations (``counter.inc`` live vs null) is printed for context but not
gated — single-call costs are nanoseconds and noisy.

Run modes
---------
``python benchmarks/bench_telemetry_overhead.py``
    Full benchmark: 32 nodes / 16 ranks; fails (exit 1) if the median
    enabled throughput is below 95% of disabled.

``python benchmarks/bench_telemetry_overhead.py --quick``
    CI smoke mode: 12 nodes / 6 ranks, same 95% gate.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

from _gate import GateReport
from bench_incremental_eval import build_workload

from repro.schedulers import make_scheduler
from repro.schedulers.annealing import AnnealingSchedule
from repro.telemetry import MetricsRegistry, NullRegistry, Tracer, use_registry

OVERHEAD_GATE = 0.95  # enabled throughput must stay >= 95% of disabled


def mode_pass(evaluator, pool, schedule, restarts: int, registry):
    """A pass: wall seconds of the next seed's serial SA portfolio run, on a
    fresh evaluator under a fresh *registry* (a class)."""
    seeds = itertools.count()

    def run() -> float:
        scheduler = make_scheduler("cs", restarts=restarts, schedule=schedule)
        ev = evaluator.with_snapshot(evaluator.snapshot)
        with use_registry(registry()), Tracer().trace("bench"):
            started = time.perf_counter()
            scheduler.schedule(ev, pool, seed=next(seeds))
            return time.perf_counter() - started

    return run


def primitive_costs(iterations: int) -> tuple[float, float]:
    """ns/op of a labelled counter.inc on a live vs a null registry."""
    live = MetricsRegistry().counter("cbes_bench_ops_total", labelnames=("kind",))
    null = NullRegistry().counter("cbes_bench_ops_total", labelnames=("kind",))
    costs = []
    for child in (live, null):
        started = time.perf_counter()
        for _ in range(iterations):
            child.inc(kind="bench")
        costs.append((time.perf_counter() - started) / iterations * 1e9)
    return costs[0], costs[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small instance, same 95%% gate",
    )
    args = parser.parse_args(argv)

    if args.quick:
        nnodes, nprocs, restarts = 12, 6, 2
        schedule = AnnealingSchedule(moves_per_temperature=80, steps=20, patience=8)
    else:
        nnodes, nprocs, restarts = 32, 16, 3
        schedule = AnnealingSchedule(moves_per_temperature=80, steps=25, patience=6)

    report = GateReport("telemetry_overhead", mode="quick" if args.quick else "full")
    report.metric("nnodes", nnodes)
    report.metric("nprocs", nprocs)
    evaluator, pool = build_workload(nnodes, nprocs)
    paired = report.paired(
        "throughput_ratio",  # >1 means enabled was (noise) faster
        mode_pass(evaluator, pool, schedule, restarts, NullRegistry),
        mode_pass(evaluator, pool, schedule, restarts, MetricsRegistry),
        OVERHEAD_GATE,
        "higher",
        "a live MetricsRegistry against NullRegistry on the SA scheduling path",
    )
    report.metric("disabled_ms", round(paired.numerator * 1e3, 2))
    report.metric("enabled_ms", round(paired.denominator * 1e3, 2))
    live_ns, null_ns = primitive_costs(200_000)
    report.metric("counter_inc_live_ns", round(live_ns, 1))
    report.metric("counter_inc_null_ns", round(null_ns, 1))
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

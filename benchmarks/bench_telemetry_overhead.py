"""Benchmark: cost of the telemetry layer on the scheduling hot path.

The contract (docs/OBSERVABILITY.md): instrumentation is batched — search
loops count into local integers and touch the ambient registry once per
run — so running a full SA schedule with a *live* ``MetricsRegistry``
must stay within 5% of the disabled (``NullRegistry``) throughput, and
disabling telemetry must cost essentially nothing.  Every trial runs
inside a trace, so both modes record the schedule's spans.

Trials are interleaved (disabled, enabled, disabled, enabled, ...) and
the best wall time per mode is kept, so a one-off scheduler hiccup or
turbo-frequency drift cannot bias one mode.  A microbenchmark of the
primitive operations (``counter.inc`` live vs null) is printed for
context but not gated — single-call costs are nanoseconds and noisy.

Run modes
---------
``python benchmarks/bench_telemetry_overhead.py``
    Full benchmark: 32 nodes / 16 ranks, 5 interleaved trials; fails
    (exit 1) if enabled throughput drops below 95% of disabled.

``python benchmarks/bench_telemetry_overhead.py --quick``
    CI smoke mode: 12 nodes / 6 ranks, 3 trials, same 95% gate.
"""

from __future__ import annotations

import argparse
import sys
import time

from _gate import GateReport
from bench_incremental_eval import build_workload

from repro.schedulers import make_scheduler
from repro.schedulers.annealing import AnnealingSchedule
from repro.telemetry import MetricsRegistry, NullRegistry, Tracer, use_registry

OVERHEAD_GATE = 0.95  # enabled throughput must stay >= 95% of disabled


def one_schedule(evaluator, pool, schedule, restarts: int, seed: int) -> float:
    """Wall time of one serial SA portfolio run on a fresh evaluator."""
    scheduler = make_scheduler("cs", restarts=restarts, schedule=schedule)
    ev = evaluator.with_snapshot(evaluator.snapshot)
    started = time.perf_counter()
    scheduler.schedule(ev, pool, seed=seed)
    return time.perf_counter() - started


def interleaved_best(evaluator, pool, schedule, restarts: int, trials: int):
    """Best wall time per mode over interleaved trials.

    The two modes alternate within each trial and swap their order every
    other trial, so slow frequency drift hits both equally; keeping the
    best time per mode discards one-off scheduler hiccups.
    """
    best = {"disabled": float("inf"), "enabled": float("inf")}
    for trial in range(trials):
        modes = [("disabled", NullRegistry()), ("enabled", MetricsRegistry())]
        if trial % 2:
            modes.reverse()
        for mode, registry in modes:
            with use_registry(registry), Tracer().trace("bench"):
                elapsed = one_schedule(evaluator, pool, schedule, restarts, seed=trial)
            best[mode] = min(best[mode], elapsed)
    return best["disabled"], best["enabled"]


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
        help="CI smoke mode: small instance, fewer trials, same 95%% gate",
    )
    args = parser.parse_args(argv)

    if args.quick:
        nnodes, nprocs, restarts, trials = 12, 6, 2, 4
        schedule = AnnealingSchedule(moves_per_temperature=80, steps=20, patience=8)
    else:
        nnodes, nprocs, restarts, trials = 32, 16, 3, 5
        schedule = AnnealingSchedule(moves_per_temperature=80, steps=25, patience=6)

    evaluator, pool = build_workload(nnodes, nprocs)
    disabled, enabled = interleaved_best(evaluator, pool, schedule, restarts, trials)
    ratio = disabled / enabled  # >1 means enabled was (noise) faster
    if ratio < OVERHEAD_GATE:
        # One re-measure before failing: a CI neighbour's burst can sink
        # a whole interleaved pass, but not two in a row.
        disabled, enabled = interleaved_best(evaluator, pool, schedule, restarts, trials)
        ratio = disabled / enabled
    live_ns, null_ns = primitive_costs(200_000)

    print(f"workload: {nnodes} nodes / {nprocs} ranks, {restarts} SA restarts")
    print(f"telemetry disabled (NullRegistry): {disabled * 1e3:9.1f} ms/schedule")
    print(f"telemetry enabled  (MetricsRegistry): {enabled * 1e3:6.1f} ms/schedule")
    print(f"enabled/disabled throughput ratio: {ratio:9.3f}   (gate >= {OVERHEAD_GATE})")
    print(f"counter.inc(live): {live_ns:7.0f} ns/op    counter.inc(null): {null_ns:5.0f} ns/op")

    report = GateReport("telemetry_overhead", mode="quick" if args.quick else "full")
    report.metric("nnodes", nnodes)
    report.metric("nprocs", nprocs)
    report.metric("disabled_ms", round(disabled * 1e3, 2))
    report.metric("enabled_ms", round(enabled * 1e3, 2))
    report.metric("throughput_ratio", round(ratio, 4))
    report.metric("counter_inc_live_ns", round(live_ns, 1))
    report.metric("counter_inc_null_ns", round(null_ns, 1))
    report.gate(
        "overhead",
        ratio >= OVERHEAD_GATE,
        f"enabling telemetry cost {(1 - ratio) * 100:.1f}% "
        f"(> {(1 - OVERHEAD_GATE) * 100:.0f}% budget)",
    )
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

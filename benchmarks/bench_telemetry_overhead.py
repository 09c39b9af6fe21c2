"""Benchmark: cost of the telemetry layer on the scheduling hot path.

The contract (docs/OBSERVABILITY.md): instrumentation is batched — search
loops count into local integers and touch the ambient registry once per
run — so running a full SA schedule with a *live* ``MetricsRegistry``
must stay within 5% of the disabled (``NullRegistry``) throughput, and
disabling telemetry must cost essentially nothing.  Every schedule runs
inside a trace, so both modes record the schedule's spans.

The gate judges the median of *paired* ratios: each pair runs the same
seeded schedule once per mode, back to back, the order swapped every
other pair, and gives disabled time / enabled time.  A pair shares its
host minute, so host noise (which moves a whole best-of-4 pass by
-32..+11 % between runs on a shared 2-CPU host) mostly cancels in it.
Pairs are drawn in batches until the median's distribution-free ~95 %
interval (order statistics ``k`` and ``n - 1 - k``, ``k = floor((n -
1.96 sqrt(n)) / 2)``) lies on one side of the bound, or the pair budget
is spent; then the median is judged.  A microbenchmark of the primitive
operations (``counter.inc`` live vs null) is printed for context but not
gated — single-call costs are nanoseconds and noisy.

Run modes
---------
``python benchmarks/bench_telemetry_overhead.py``
    Full benchmark: 32 nodes / 16 ranks, 10..40 pairs; fails (exit 1)
    if the median enabled throughput is below 95% of disabled.

``python benchmarks/bench_telemetry_overhead.py --quick``
    CI smoke mode: 12 nodes / 6 ranks, 20..80 pairs, same 95% gate.
"""

from __future__ import annotations

import argparse
import statistics
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


def paired_ratios(evaluator, pool, schedule, restarts: int, first: int, pairs: int):
    """``(disabled time / enabled time, disabled s, enabled s)`` of pairs
    ``first .. first + pairs - 1``; pair k runs seed k, odd pairs enabled first."""
    out = []
    for pair in range(first, first + pairs):
        modes = [("disabled", NullRegistry()), ("enabled", MetricsRegistry())]
        if pair % 2:
            modes.reverse()
        elapsed = {}
        for mode, registry in modes:
            with use_registry(registry), Tracer().trace("bench"):
                elapsed[mode] = one_schedule(evaluator, pool, schedule, restarts, seed=pair)
        disabled, enabled = elapsed["disabled"], elapsed["enabled"]
        out.append((disabled / enabled, disabled, enabled))
    return out


def median_interval(values: list[float]) -> tuple[float, float]:
    """A distribution-free ~95 % confidence interval of the median of *values*."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, int((n - 1.96 * n**0.5) / 2))
    return ordered[k], ordered[n - 1 - k]


def resolved_pairs(evaluator, pool, schedule, restarts: int, batch: int, budget: int):
    """Pairs drawn *batch* at a time until the median's interval clears
    :data:`OVERHEAD_GATE` on one side, or *budget* pairs are drawn."""
    pairs: list[tuple[float, float, float]] = []
    while len(pairs) < budget:
        pairs += paired_ratios(evaluator, pool, schedule, restarts, len(pairs), batch)
        low, high = median_interval([ratio for ratio, _, _ in pairs])
        if len(pairs) >= 2 * batch and (low >= OVERHEAD_GATE or high < OVERHEAD_GATE):
            break
    return pairs


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
        help="CI smoke mode: small instance, more pairs, same 95%% gate",
    )
    args = parser.parse_args(argv)

    if args.quick:
        nnodes, nprocs, restarts, batch, budget = 12, 6, 2, 10, 80
        schedule = AnnealingSchedule(moves_per_temperature=80, steps=20, patience=8)
    else:
        nnodes, nprocs, restarts, batch, budget = 32, 16, 3, 5, 40
        schedule = AnnealingSchedule(moves_per_temperature=80, steps=25, patience=6)

    evaluator, pool = build_workload(nnodes, nprocs)
    pairs = resolved_pairs(evaluator, pool, schedule, restarts, batch, budget)
    ratios = [ratio for ratio, _, _ in pairs]
    ratio = statistics.median(ratios)  # >1 means enabled was (noise) faster
    low, high = median_interval(ratios)
    disabled = statistics.median(d for _, d, _ in pairs)
    enabled = statistics.median(e for _, _, e in pairs)
    live_ns, null_ns = primitive_costs(200_000)

    print(f"workload: {nnodes} nodes / {nprocs} ranks, {restarts} SA restarts, {len(pairs)} pairs")
    print(f"telemetry disabled (NullRegistry): {disabled * 1e3:9.1f} ms/schedule (median)")
    print(f"telemetry enabled  (MetricsRegistry): {enabled * 1e3:6.1f} ms/schedule (median)")
    print(
        f"median paired throughput ratio: {ratio:6.3f}   ~95% interval [{low:.3f}, {high:.3f}]"
        f"   (gate >= {OVERHEAD_GATE})"
    )
    print(f"counter.inc(live): {live_ns:7.0f} ns/op    counter.inc(null): {null_ns:5.0f} ns/op")

    report = GateReport("telemetry_overhead", mode="quick" if args.quick else "full")
    report.metric("nnodes", nnodes)
    report.metric("nprocs", nprocs)
    report.metric("pairs", len(pairs))
    report.metric("disabled_ms", round(disabled * 1e3, 2))
    report.metric("enabled_ms", round(enabled * 1e3, 2))
    report.metric("throughput_ratio", round(ratio, 4))
    report.metric("throughput_ratio_low", round(low, 4))
    report.metric("throughput_ratio_high", round(high, 4))
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

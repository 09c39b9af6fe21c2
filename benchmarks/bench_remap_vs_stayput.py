"""Benchmark: closed-loop remapping vs stay-put under injected drift.

The end-to-end cost/benefit validation of ``repro.remap``: run LU and
CG through the phased ground-truth simulation
(:mod:`repro.simulate.closedloop`), inject background load on the
mapped nodes a quarter of the way in, and compare the remap policy's
makespan — *including the charged migration pauses* — against staying
on the initial mapping.

Gates
-----
* ``<app>_beats_stayput`` — remap makespan <= 0.9x stay-put under the
  injected-drift scenario;
* ``<app>_no_false_remap`` — zero remaps issued under the steady
  (no-injection) scenario;
* ``<app>_remaps`` — the remaps under drift, a count gated ``==`` the
  committed ``BENCH_remap_vs_stayput.json``.

Run modes
---------
``python benchmarks/bench_remap_vs_stayput.py``
    Full benchmark: 16 nodes, 8 ranks per app, 8 phases.

``python benchmarks/bench_remap_vs_stayput.py --quick``
    CI smoke mode: 10 nodes, 4 ranks, 6 phases — same gates, smaller
    instance.
"""

from __future__ import annotations

import argparse
import sys
import time

from _gate import GateReport

from repro.cluster import single_switch
from repro.core import CBES
from repro.monitoring.load import LoadEvent
from repro.remap import DriftWatcher, MigrationCostModel, Remapper
from repro.simulate.closedloop import LoadPhase, run_closed_loop
from repro.workloads import CG, LU

#: Injected CPU-hog load per mapped node (1.5 background processes).
DRIFT_CPU_LOAD = 1.5
#: Remap must recoup the migration pause and then some.
RATIO_GATE = 0.9


def make_remapper() -> Remapper:
    # Modest checkpoint images keep migrations in the single-seconds
    # range these scaled-down runs can amortize.
    return Remapper(
        cost_model=MigrationCostModel(checkpoint_base_bytes=8 * 1024 * 1024),
        restarts=2,
        seed_scan=4,
    )


def run_app(service, app, nprocs: int, phases: int):
    """Both policies under injected drift, plus a steady remap run."""
    nodes = service.cluster.node_ids()
    scenario = [
        LoadPhase(
            at_fraction=0.25,
            events=tuple(LoadEvent(n, cpu_load=DRIFT_CPU_LOAD) for n in nodes[:nprocs]),
        )
    ]
    kwargs = dict(phases=phases, seed=0)
    started = time.perf_counter()
    stay = run_closed_loop(
        service, app, nprocs, scenario=scenario, policy="stay", **kwargs
    )
    remap = run_closed_loop(
        service,
        app,
        nprocs,
        scenario=scenario,
        policy="remap",
        remapper=make_remapper(),
        watcher=DriftWatcher(threshold=0.10),
        **kwargs,
    )
    steady = run_closed_loop(
        service,
        app,
        nprocs,
        scenario=(),
        policy="remap",
        remapper=make_remapper(),
        watcher=DriftWatcher(threshold=0.10),
        **kwargs,
    )
    elapsed = time.perf_counter() - started
    return stay, remap, steady, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small cluster and rank counts",
    )
    args = parser.parse_args(argv)

    if args.quick:
        nnodes, nprocs, phases = 10, 4, 6
    else:
        nnodes, nprocs, phases = 16, 8, 8

    cluster = single_switch("bench", nnodes)
    service = CBES(cluster)
    service.calibrate(seed=7)
    apps = [LU("A"), CG("A")]
    for app in apps:
        service.profile_application(app, nprocs, seed=3)

    report = GateReport("remap_vs_stayput", mode="quick" if args.quick else "full")
    report.metric("nnodes", nnodes)
    report.metric("nprocs", nprocs)
    report.metric("phases", phases)
    report.metric("injected_cpu_load", DRIFT_CPU_LOAD)

    for app in apps:
        stay, remap, steady, elapsed = run_app(service, app, nprocs, phases)
        ratio = remap.makespan_s / stay.makespan_s
        key = app.name.split(".")[0]
        report.metric(f"{key}_stayput_s", round(stay.makespan_s, 3))
        report.metric(f"{key}_remap_s", round(remap.makespan_s, 3))
        report.metric(f"{key}_ratio", round(ratio, 4))
        report.count(f"{key}_remaps", remap.remaps)
        report.metric(f"{key}_migration_s", round(remap.migration_s, 3))
        report.metric(f"{key}_steady_remaps", steady.remaps)
        report.metric(f"{key}_bench_s", round(elapsed, 1))
        report.gate(
            f"{key}_beats_stayput",
            ratio <= RATIO_GATE,
            f"{app.name} remap/stay-put makespan ratio {ratio:.3f} "
            f"(required <= {RATIO_GATE})",
        )
        report.gate(
            f"{key}_no_false_remap",
            steady.remaps == 0,
            f"{app.name} issued {steady.remaps} remap(s) under the steady "
            "scenario (required 0)",
        )

    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

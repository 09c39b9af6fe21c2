"""Benchmark: fleet-router scale-out over shared-nothing replicas.

Measures batch scheduling throughput through the fleet router with one
and with two replicas.  Replicas are real ``repro serve`` subprocesses
(own process, own GIL), so on a multi-core machine two of them should
approach 2x the single-replica rate; the router adds one proxy hop,
which the single-replica run prices.

Every fleet answer is checked against direct submission to a standalone
daemon, so the run doubles as an end-to-end consistency test: transparent
scale-out means *identical* results, not just faster ones.

Run modes
---------
``python benchmarks/bench_fleet_scaleout.py``
    Full benchmark: subprocess replicas, 24 schedule jobs; fails
    (exit 1) on any fleet/direct disagreement, and — on machines with
    at least 2 CPUs — if 2 replicas do not reach 1.5x the 1-replica
    throughput.

``python benchmarks/bench_fleet_scaleout.py --quick``
    CI smoke mode: two in-process replicas behind the router; gates on
    correctness only (fleet == direct, unique ids, merged health) — no
    throughput floor on shared CI runners.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from _gate import GateReport

from repro.cluster import single_switch
from repro.core import CBES
from repro.fleet import RouterThread
from repro.server import DaemonThread
from repro.workloads import SyntheticBenchmark


def build_service(nnodes: int, nprocs: int) -> tuple[CBES, str]:
    service = CBES(single_switch("bench", nnodes))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
    service.profile_application(app, nprocs, seed=1)
    return service, app.name


def quick_mode(report: GateReport) -> None:
    """Two in-process replicas: correctness gates only."""
    nprocs = 3
    s1, app = build_service(6, nprocs)
    s2, _ = build_service(6, nprocs)
    nodes = [f"bench-n{i:02d}" for i in range(nprocs)]
    with DaemonThread(s1, workers=1, queue_limit=32, replica_id="r0") as d1, \
         DaemonThread(s2, workers=1, queue_limit=32, replica_id="r1") as d2:
        direct = d1.client()
        direct_result = direct.wait(
            direct.submit("predict", app=app, nodes=nodes)["id"], timeout_s=120
        )["result"]
        backends = [f"{d1.host}:{d1.port}", f"{d2.host}:{d2.port}"]
        with RouterThread(backends) as router:
            client = router.client()
            health = client.healthz()
            report.gate(
                "fleet_health",
                health["status"] == "ok" and health["replicas_healthy"] == 2,
                f"expected 2 healthy replicas, got {health}",
            )
            entries = [{"kind": "predict", "app": app, "nodes": nodes} for _ in range(12)]
            start = time.perf_counter()
            jobs = client.submit_batch(entries)
            ids = [j["id"] for j in jobs]
            results = [client.wait(i, timeout_s=120) for i in ids]
            elapsed = time.perf_counter() - start
            report.metric("quick_jobs", len(ids))
            report.metric("quick_batch_s", round(elapsed, 3))
            report.gate(
                "unique_ids", len(set(ids)) == len(ids), "router minted duplicate job ids"
            )
            disagreements = sum(  # fleet == direct: a zero-difference gate
                1
                for r in results
                if r["result"]["execution_time"] != direct_result["execution_time"]
            )
            report.gate(
                "agreement",
                disagreements == 0,
                f"{disagreements} fleet results disagree with direct submission",
            )
            print(
                f"quick: 12 predict jobs through 2 in-process replicas in "
                f"{elapsed * 1e3:.0f} ms, 0 disagreements"
            )


def fleet_batch_rate(db: str, replicas: int, njobs: int, app: str) -> tuple[float, list[float]]:
    """Jobs/s pushing *njobs* schedule jobs through a fleet of *replicas*."""
    import asyncio

    from repro.fleet import FleetRouter, FleetSupervisor
    from repro.server.client import CbesClient

    supervisor = FleetSupervisor(
        replicas=replicas, db=db, cluster="orange-grove", workers=1, queue_limit=64,
        log_level="warning",
    )
    backends = supervisor.start()
    try:
        async def _run() -> tuple[float, list[float]]:
            router = FleetRouter(backends)
            host, port = await router.start()
            loop = asyncio.get_running_loop()

            def _drive() -> tuple[float, list[float]]:
                client = CbesClient(host, port, timeout_s=600.0)
                start = time.perf_counter()
                entries = [{"kind": "schedule", "app": app, "scheduler": "cs"}] * njobs
                ids = [j["id"] for j in client.submit_batch(entries)]
                results = [client.wait(i, timeout_s=600.0) for i in ids]
                elapsed = time.perf_counter() - start
                return elapsed, [r["result"]["predicted_time"] for r in results]

            try:
                return await loop.run_in_executor(None, _drive)
            finally:
                await router.stop()

        elapsed, times = asyncio.run(_run())
        return njobs / elapsed, times
    finally:
        supervisor.stop()


def full_mode(report: GateReport, njobs: int) -> None:
    """Subprocess replicas: real processes, real parallelism."""
    from repro.cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="cbes-fleet-bench-") as db:
        assert cli_main(["--db", db, "calibrate"]) == 0
        assert cli_main(["--db", db, "profile", "lu.S", "--nprocs", "4"]) == 0
        rate1, times1 = fleet_batch_rate(db, 1, njobs, "lu.S")
        rate2, times2 = fleet_batch_rate(db, 2, njobs, "lu.S")
    speedup = rate2 / rate1
    disagreements = sum(1 for a, b in zip(times1, times2, strict=True) if a != b)
    print(f"1 replica : {rate1:6.2f} schedule jobs/s ({njobs} jobs)")
    print(f"2 replicas: {rate2:6.2f} schedule jobs/s ({njobs} jobs)")
    print(f"scale-out speedup: {speedup:.2f}x, disagreements: {disagreements}")
    report.metric("jobs", njobs)
    report.metric("rate_1_replica", round(rate1, 3))
    report.metric("rate_2_replicas", round(rate2, 3))
    report.metric("speedup", round(speedup, 3))
    report.gate(
        "agreement",
        disagreements == 0,
        f"{disagreements} results differ between the 1- and 2-replica fleets",
    )
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        report.gate(
            "scaleout",
            speedup >= 1.5,
            f"2-replica speedup {speedup:.2f}x below the 1.5x floor",
        )
    else:
        # One CPU cannot parallelize two CPU-bound replica processes;
        # record the measurement but do not gate on it.
        print(f"note: {cpus} CPU(s) — scale-out floor not enforced")
        report.metric("scaleout_gate_skipped_cpus", cpus)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode (in-process)")
    parser.add_argument("--jobs", type=int, default=24, help="schedule jobs in full mode")
    args = parser.parse_args(argv)

    report = GateReport("fleet_scaleout", mode="quick" if args.quick else "full")
    if args.quick:
        quick_mode(report)
    else:
        full_mode(report, args.jobs)
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

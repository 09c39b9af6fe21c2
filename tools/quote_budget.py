"""The quote budget: what ``predict`` and ``compare`` jobs cost the service.

Prints two figures (docs/PERFORMANCE.md, section 8):

* **CPU per ``sweep_batch`` round**, replica and router: the
  ``benchmarks/e2e`` stack (``repro serve`` with the benchmark's replica
  flags behind ``repro fleet``, ``--fsync interval``, on a freshly
  calibrated Centurion database) replays ``--rounds`` rounds of
  ``workloads.sweep_round`` (24 ``predict`` + 8 ``compare`` of 8,
  ``cg.A``/8) through ``submit_batch`` + ``wait_many``; CPU is ``utime +
  stime`` of each process (``/proc/<pid>/stat``) over those rounds.
* **``JobRunner.execute`` µs per job**, one ``predict`` and one
  ``compare`` of 8 candidates: the same database loaded in-process, the
  runner of a ``DaemonThread`` called directly on the same requests;
  the median over passes.

Usage (Linux; from the repo root)::

    python tools/quote_budget.py [--rounds 200] [--seed 1]

Everything it writes goes to a temp dir under ``benchmarks/e2e/out``,
removed at exit.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
sys.path[:0] = [str(E2E.parents[1] / "src"), str(E2E)]

import stack  # noqa: E402
import workloads  # noqa: E402

from repro.cluster import centurion  # noqa: E402
from repro.core import CBES  # noqa: E402
from repro.profiling import ProfileDatabase  # noqa: E402
from repro.server import DaemonThread  # noqa: E402
from repro.server.jobs import Job  # noqa: E402
from repro.server.serialize import validate_job_payload  # noqa: E402


def cpu_s(pid: int) -> float:
    """``utime + stime`` of process *pid*, in seconds."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_per_round(workdir: Path, db: Path, rounds: list[list[dict]]) -> dict[str, float]:
    """Replica and router CPU ms per round over *rounds*, after two warm-up rounds."""
    running = stack.Stack(workdir, db, fsync="interval", router=True)
    running.start()
    try:
        with running.client() as client:

            def one(docs: list[dict]) -> None:
                client.wait_many([job["id"] for job in client.submit_batch(docs)])

            for docs in rounds[:2]:
                one(docs)
            procs = {"replica": running.replica.proc.pid, "router": running.router.proc.pid}
            before = {name: cpu_s(pid) for name, pid in procs.items()}
            for docs in rounds[2:]:
                one(docs)
            timed = len(rounds) - 2
            return {
                name: (cpu_s(pid) - before[name]) / timed * 1e3 for name, pid in procs.items()
            }
    finally:
        running.stop()


def execute_us(db: Path, docs: list[dict], passes: int = 21) -> float:
    """Median µs of ``JobRunner.execute`` over *docs*, per job."""
    service = CBES(centurion())
    ProfileDatabase(db).attach(service)
    jobs = [Job(f"b{i}", *validate_job_payload(service, doc)) for i, doc in enumerate(docs)]
    with DaemonThread(service, workers=1, queue_limit=8) as srv:
        runner = srv.daemon.runner
        runner.execute(jobs[0])  # builds the generation's context
        times = []
        for _ in range(passes):
            started = time.perf_counter()
            for job in jobs:
                runner.execute(job)
            times.append((time.perf_counter() - started) / len(jobs))
    return statistics.median(times) * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=200, help="timed sweep rounds")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    stack.clear_repro_env()
    workdir = stack.make_workdir("quote-budget")
    try:
        db = workdir / "db"
        stack.build_db(db)
        rng = random.Random(f"quote-budget:{args.seed}")
        nodes = centurion().node_ids()
        rounds = [workloads.sweep_round(rng, nodes) for _ in range(args.rounds + 2)]
        cpu = cpu_per_round(workdir, db, rounds)
        quotes = [doc for docs in rounds[:8] for doc in docs]
        predict = execute_us(db, [doc for doc in quotes if doc["kind"] == "predict"])
        compare = execute_us(db, [doc for doc in quotes if doc["kind"] == "compare"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"sweep_batch round CPU: replica {cpu['replica']:.2f} ms, router {cpu['router']:.2f} ms"
          f" ({args.rounds} rounds)")
    print(f"JobRunner.execute: predict {predict:.1f} us, compare of 8 {compare:.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The quote budget: what ``predict`` and ``compare`` jobs cost the service.

Prints two figures (docs/PERFORMANCE.md, "server: the quote"):

* **CPU per ``sweep_batch`` round**, replica and router: the
  ``benchmarks/e2e`` stack (``repro serve`` with the benchmark's replica
  flags behind ``repro fleet``, ``--fsync interval``, on a freshly
  calibrated Centurion database) replays ``--rounds`` rounds of
  ``workloads.sweep_round`` (24 ``predict`` + 8 ``compare`` of 8,
  ``cg.A``/8) through ``submit_batch`` + ``wait_many``; CPU is ``utime +
  stime`` of each process (``/proc/<pid>/stat``) over those rounds.
* **Journal writes and held-lookup wake-ups per round**: the same
  rounds through an in-process ``DaemonThread`` with the replica's
  settings and a data dir, counted by ``Journal.writes`` and by the
  event-loop callbacks that re-test held ``wait_s`` lookups.

Both are for one tree at a time.  What a single quote costs inside
``JobRunner.execute`` is measured paired against one reference
``predict()`` by ``benchmarks/bench_server_throughput.py``
(``predict_job_us``, gated as ``predict_job_ratio``).

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
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
sys.path[:0] = [str(E2E.parents[1] / "src"), str(E2E)]

import stack  # noqa: E402
import workloads  # noqa: E402

from repro.cluster import centurion  # noqa: E402
from repro.core import CBES  # noqa: E402
from repro.profiling import ProfileDatabase  # noqa: E402
from repro.server import DaemonThread  # noqa: E402


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


def load_service(db: Path) -> CBES:
    """A Centurion service with the profiles of *db*."""
    service = CBES(centurion())
    ProfileDatabase(db).attach(service)
    return service


def persist_per_round(workdir: Path, db: Path, rounds: list[list[dict]]) -> tuple[float, float]:
    """Journal writes and held-lookup wake-ups per round over *rounds*, after
    two warm-up rounds, in-process with the replica's settings."""
    with (
        DaemonThread(load_service(db), workers=2, queue_limit=256, refresh_interval_s=0,
                     data_dir=workdir / "persist-data", fsync="interval") as srv,
        srv.client() as client,
    ):
        holds, journal = srv.daemon.runner.holds, srv.daemon.store.journal
        release_ready, wakeups = holds._release_ready, []

        def counted() -> None:
            wakeups.append(None)
            release_ready()

        holds._release_ready = counted

        def one(docs: list[dict]) -> None:
            ids = [job["id"] for job in client.submit_batch(docs)]
            client.wait_many(ids, poll_interval_s=0.005)

        for docs in rounds[:2]:
            one(docs)
        writes, woken = journal.writes, len(wakeups)
        for docs in rounds[2:]:
            one(docs)
        timed = len(rounds) - 2
        return (journal.writes - writes) / timed, (len(wakeups) - woken) / timed


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
        writes, wakeups = persist_per_round(workdir, db, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"sweep_batch round CPU: replica {cpu['replica']:.2f} ms, router {cpu['router']:.2f} ms"
          f" ({args.rounds} rounds)")
    print(f"per round: {writes:.2f} journal writes, {wakeups:.2f} held-lookup wake-ups")
    return 0


if __name__ == "__main__":
    sys.exit(main())

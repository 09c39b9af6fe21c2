"""Benchmark: scheduling-daemon round-trip throughput and overhead.

Boots the asyncio daemon in-process (ephemeral port) around a calibrated
service and pushes prediction jobs through the full network path —
HTTP framing, queue, worker pool, JSON codecs — measuring jobs/second
and the per-request overhead versus calling the evaluator directly.
Every remote answer is checked ``==`` against the direct path (the
daemon prices a quote with the kernel, the direct path with the paper
loop ``predict()``; they share one association), so the run doubles as
an end-to-end consistency test.  Three timing ratios are gated, each
by the paired ratio rule of ``_gate.py``.  Waiting on a batch costs the
batch, not the store: a 32-job ``submit_batch`` + ``wait_many`` round
against a daemon holding 2 000 finished jobs may take at most 1.5x the
round against one holding none.  A quote through the daemon's executor
costs less than one reference loop: ``predict_job_ratio`` is
``JobRunner.execute`` of a ``predict`` job over ``evaluator.predict()``
of the same mapping on the 16-node / 8-rank instance in both run modes
(8 ranks is the quote ``benchmarks/e2e`` sends; a ratio, so no host
constant: ~1.3 when the executor ran the reference loop itself, ~0.35
off the cached context).  And a finished job's result is encoded
once: ``compact_ratio`` is ``DurableJobStore.compact()`` of a store of
finished 8-rank quotes (three predicts to one 8-way compare) over
encoding those same results once with the C encoder — under 0.5 when
the snapshot splices the bytes ``mark_done`` stored (~0.15), about 4
when it re-encoded the whole store with ``json.dump``.
Two counts are gated ``==`` the committed ``BENCH_server_throughput.json``:
``round_journal_writes``, the ``Journal.writes`` of one ``ROUND_JOBS``-job
``submit_batch`` + ``wait_many`` round (three predicts to one compare)
against a durable daemon — 2, one per batch and one per run, where one
per job record would be 64 — and ``context_cache_hit_ratio`` over the
timed predict jobs.  ``result_residency_ratio`` (reported, not gated)
is what those results occupy as the store keeps them over what they
occupy as the dict trees a client parses.

Run modes
---------
``python benchmarks/bench_server_throughput.py``
    Full benchmark: 16 nodes / 8 ranks, 200 jobs across 4 workers;
    fails (exit 1) if jobs fail, any answer differs from the direct
    path, a predict job costs more than one reference loop, or
    throughput drops below 10 jobs/s.

``python benchmarks/bench_server_throughput.py --quick``
    CI smoke mode: 6 nodes, 24 jobs, 2 workers; the same gates without
    the throughput floor (shared CI runners make one meaningless).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
import tracemalloc

from _gate import GateReport, Paired, timed

from repro._util import encode_json
from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.persist import DurableJobStore
from repro.server import BackpressureError, DaemonThread
from repro.server.jobs import Job
from repro.server.serialize import prediction_to_dict
from repro.telemetry import MetricsRegistry, use_registry
from repro.workloads import SyntheticBenchmark

#: The store-size-independence gate: batch size, finished jobs held by
#: the "full" store, and the allowed ratio.
ROUND_JOBS, FULL_STORE_JOBS, MAX_ROUND_RATIO = 32, 2000, 1.5
#: The quote-cost gate: its instance (nodes, ranks, mappings) and the
#: most a predict job's ``execute`` may cost in reference loops.
PROBE_SHAPE, MAX_PREDICT_JOB_RATIO = (16, 8, 24), 1.0
#: The encoded-once gate: the most a compaction of ``FULL_STORE_JOBS``
#: finished jobs may cost in single encodings of the results it holds.
MAX_COMPACT_RATIO = 0.5


def build_service(nnodes: int, nprocs: int) -> tuple[CBES, str]:
    service = CBES(single_switch("bench", nnodes))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
    service.profile_application(app, nprocs, seed=1)
    return service, app.name


def pools(service: CBES, nprocs: int, njobs: int) -> list[list[str]]:
    """Rotating node pools so jobs exercise distinct mappings."""
    ids = service.cluster.node_ids()
    return [[ids[(j + k) % len(ids)] for k in range(nprocs)] for j in range(njobs)]


def direct_throughput(service: CBES, app_name: str, mappings: list[list[str]]) -> tuple[float, list[float]]:
    evaluator = service.evaluator(app_name)
    start = time.perf_counter()
    times = [evaluator.predict(TaskMapping(nodes)).execution_time for nodes in mappings]
    return time.perf_counter() - start, times


def daemon_throughput(
    service: CBES, app_name: str, mappings: list[list[str]], *, workers: int
) -> tuple[float, list[float], int]:
    retries = 0
    with DaemonThread(service, workers=workers, queue_limit=2 * workers, job_ttl_s=3600.0) as srv:
        client = srv.client()
        start = time.perf_counter()
        job_ids = []
        for nodes in mappings:
            while True:
                try:
                    job_ids.append(client.submit("predict", app=app_name, nodes=nodes)["id"])
                    break
                except BackpressureError as exc:
                    retries += 1
                    time.sleep(min(exc.retry_after_s, 0.02))
        results = [client.wait(jid, timeout_s=300.0) for jid in job_ids]
        elapsed = time.perf_counter() - start
    times = [job["result"]["execution_time"] for job in results]
    return elapsed, times, retries


def store_size_ratio(report: GateReport, service: CBES, app_name: str, nodes: list[str]) -> Paired:
    """Paired ``submit_batch`` + ``wait_many`` rounds: full store over empty store.

    Two daemons, one holding :data:`FULL_STORE_JOBS` finished jobs that
    carry a real result document and one holding none; each forgets a
    round's jobs after timing it, so only the number of jobs held
    differs and stays put however many pairs are drawn.
    """
    docs = [{"kind": "predict", "app": app_name, "nodes": nodes}] * ROUND_JOBS
    with (
        DaemonThread(service, workers=2, queue_limit=2 * ROUND_JOBS, job_ttl_s=3600.0) as empty,
        DaemonThread(service, workers=2, queue_limit=2 * ROUND_JOBS, job_ttl_s=3600.0) as full,
    ):

        def round_pass(srv: DaemonThread):
            client, store = srv.client(), srv.daemon.store

            def one_round() -> float:
                start = time.perf_counter()
                ids = [job["id"] for job in client.submit_batch(docs)]
                client.wait_many(ids, timeout_s=300.0, poll_interval_s=0.002)
                elapsed = time.perf_counter() - start
                for job_id in ids:
                    store.discard(job_id)
                return elapsed

            one_round()  # warm-up: connection, evaluator, worker threads
            return one_round

        result = prediction_to_dict(service.evaluator(app_name).predict(TaskMapping(nodes)))
        store = full.daemon.store
        for _ in range(FULL_STORE_JOBS):
            job = store.create("predict", docs[0])
            store.mark_running(job.id)
            store.mark_done(job.id, result)
        return report.paired(
            "store_size_ratio", round_pass(full), round_pass(empty), MAX_ROUND_RATIO, "lower",
            f"a batch round with {FULL_STORE_JOBS} finished jobs held against one with none",
        )


def journal_writes_per_round(service: CBES, app_name: str, nodes: list[str]) -> int:
    """Journal writes of one ``submit_batch`` + ``wait_many`` round of
    :data:`ROUND_JOBS` quotes, three predicts to one compare, on a durable daemon."""
    predict = {"kind": "predict", "app": app_name, "nodes": nodes}
    compare = {"kind": "compare", "app": app_name, "mappings": [nodes, nodes[::-1]]}
    docs = [predict, predict, predict, compare] * (ROUND_JOBS // 4)
    with (
        tempfile.TemporaryDirectory(prefix="cbes-bench-journal-") as data_dir,
        DaemonThread(service, workers=2, queue_limit=2 * ROUND_JOBS, job_ttl_s=3600.0,
                     data_dir=data_dir, fsync="never") as srv,
        srv.client() as client,
    ):
        journal = srv.daemon.store.journal
        before = journal.writes
        client.wait_many([job["id"] for job in client.submit_batch(docs)], timeout_s=300.0)
        return journal.writes - before


def predict_job_ratio(report: GateReport) -> tuple[Paired, float]:
    """Paired ``JobRunner.execute`` / ``evaluator.predict()`` passes (seconds
    per mapping of :data:`PROBE_SHAPE`), and the context-cache hit ratio
    over them off ``cbes_context_cache_events_total`` (the one miss is the
    untimed first call)."""
    nnodes, nprocs, njobs = PROBE_SHAPE
    service, app_name = build_service(nnodes, nprocs)
    mappings = pools(service, nprocs, njobs)
    jobs = [
        Job(f"probe-{i}", "predict", {"app": app_name, "seed": 0, "options": None, "nodes": nodes})
        for i, nodes in enumerate(mappings)
    ]
    candidates = [TaskMapping(nodes) for nodes in mappings]
    registry = MetricsRegistry()
    with (
        DaemonThread(service, workers=1, queue_limit=8, metrics=registry) as srv,
        use_registry(registry),  # as a job thread records, into its daemon's registry
    ):
        client = srv.client()
        execute = srv.daemon.runner.execute
        evaluator = service.evaluator(app_name, snapshot=srv.daemon.runner.snapshot)
        execute(jobs[0])  # the one miss: builds the context

        def events() -> dict[str, float]:
            family = client.metrics()["cbes_context_cache_events_total"]
            return {s["labels"]["event"]: s["value"] for s in family["samples"]}

        before = events()
        paired = report.paired(
            "predict_job_ratio",
            timed(lambda: [execute(job) for job in jobs], njobs),
            timed(lambda: [evaluator.predict(mapping) for mapping in candidates], njobs),
            MAX_PREDICT_JOB_RATIO,
            "lower",
            "a predict job in the executor against one reference predict()",
        )
        after = events()
    hits = after.get("hit", 0.0) - before.get("hit", 0.0)
    misses = after.get("miss", 0.0) - before.get("miss", 0.0)
    return paired, hits / (hits + misses)


def compact_ratio(report: GateReport) -> tuple[Paired, float]:
    """Paired ``compact()`` / encode-once passes, and the result residency ratio.

    A ``DurableJobStore`` of :data:`FULL_STORE_JOBS` finished jobs on the
    :data:`PROBE_SHAPE` instance in both run modes: one ``compact()``
    (snapshot write with its fsyncs) against one C-encoder pass over the
    same result documents.  The residency ratio is by ``tracemalloc``:
    the results as the store retains them over the same documents parsed
    into dict trees.
    """
    nnodes, nprocs, nmappings = PROBE_SHAPE
    service, app_name = build_service(nnodes, nprocs)
    evaluator = service.evaluator(app_name)
    quotes = [
        prediction_to_dict(evaluator.predict(TaskMapping(nodes)))
        for nodes in pools(service, nprocs, nmappings)
    ]
    results = [
        quotes[i % nmappings] if i % 4 else {"ranked": [quotes[(i + k) % nmappings] for k in range(8)]}
        for i in range(FULL_STORE_JOBS)
    ]

    def held_bytes(build) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keep = build()  # noqa: F841 - alive until the reading below
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    with tempfile.TemporaryDirectory(prefix="cbes-bench-store-") as data_dir:
        store = DurableJobStore(data_dir, fsync="never", compact_bytes=1 << 40)
        jobs = [store.create("predict", {"app": app_name, "seed": 0}) for _ in results]
        for job in jobs:
            store.mark_running(job.id)
        stored = held_bytes(
            lambda: [store.mark_done(job.id, doc).id for job, doc in zip(jobs, results)]
        )
        paired = report.paired(
            "compact_ratio",
            timed(store.compact),
            timed(lambda: [encode_json(doc) for doc in results]),
            MAX_COMPACT_RATIO,
            "lower",
            f"compacting {FULL_STORE_JOBS} finished jobs against encoding their results once",
        )
        store.close()
    encoded = [encode_json(doc) for doc in results]
    trees = held_bytes(lambda: [json.loads(raw) for raw in encoded])
    return paired, stored / trees


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode (small instance)")
    parser.add_argument("--jobs", type=int, default=None, help="override job count")
    args = parser.parse_args(argv)

    nnodes, nprocs, workers = (6, 3, 2) if args.quick else (16, 8, 4)
    njobs = args.jobs or (24 if args.quick else 200)

    service, app_name = build_service(nnodes, nprocs)
    mappings = pools(service, nprocs, njobs)

    direct_s, direct_times = direct_throughput(service, app_name, mappings)
    daemon_s, daemon_times, retries = daemon_throughput(
        service, app_name, mappings, workers=workers
    )
    report = GateReport("server_throughput", mode="quick" if args.quick else "full")
    report.metric("nnodes", nnodes)
    report.metric("jobs", njobs)
    report.metric("workers", workers)
    report.metric("direct_predictions_per_s", round(njobs / direct_s, 1))
    report.metric("daemon_jobs_per_s", round(njobs / daemon_s, 2))
    report.metric("overhead_ms_per_job", round((daemon_s - direct_s) / njobs * 1e3, 3))
    report.metric("backpressure_retries", retries)
    # Kernel (daemon) against paper loop (direct): a zero-difference gate.
    disagreements = sum(1 for a, b in zip(direct_times, daemon_times, strict=True) if a != b)
    report.gate(
        "agreement",
        disagreements == 0,
        f"{disagreements} remote results disagree with the direct evaluator",
    )
    if not args.quick:
        report.gate(
            "throughput",
            njobs / daemon_s >= 10.0,
            f"daemon throughput {njobs / daemon_s:.1f} jobs/s below the 10 jobs/s floor",
        )

    rounds = store_size_ratio(report, service, app_name, mappings[0])
    report.metric("batch_round_ms_empty_store", round(rounds.denominator * 1e3, 2))
    report.metric("batch_round_ms_full_store", round(rounds.numerator * 1e3, 2))
    report.count("round_journal_writes", journal_writes_per_round(service, app_name, mappings[0]))
    predict_job, hit_ratio = predict_job_ratio(report)
    report.metric("predict_job_us", round(predict_job.numerator * 1e6, 2))
    report.metric("reference_predict_us", round(predict_job.denominator * 1e6, 2))
    report.count("context_cache_hit_ratio", round(hit_ratio, 4))
    compaction, residency_ratio = compact_ratio(report)
    report.metric("compact_ms", round(compaction.numerator * 1e3, 2))
    report.metric("encode_results_ms", round(compaction.denominator * 1e3, 2))
    report.metric("result_residency_ratio", round(residency_ratio, 3))
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

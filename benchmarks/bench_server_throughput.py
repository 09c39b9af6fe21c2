"""Benchmark: scheduling-daemon round-trip throughput and overhead.

Boots the asyncio daemon in-process (ephemeral port) around a calibrated
service and pushes prediction jobs through the full network path —
HTTP framing, queue, worker pool, JSON codecs — measuring jobs/second
and the per-request overhead versus calling the evaluator directly.
Every remote answer is checked ``==`` against the direct path (the
daemon prices a quote with the kernel, the direct path with the paper
loop ``predict()``; they share one association), so the run doubles as
an end-to-end consistency test.  It also gates that waiting on a batch
costs the batch, not the store: a 32-job ``submit_batch`` +
``wait_many`` round against a daemon holding ~2 000 finished jobs may
take at most 1.5x the round against an empty one; and that a quote
through the daemon's executor costs less than one reference loop:
``predict_job_ratio`` is ``JobRunner.execute`` of a ``predict`` job over
``evaluator.predict()`` of the same mapping, timed in the same
interleaved passes on the 16-node / 8-rank instance in both run modes
(8 ranks is the quote ``benchmarks/e2e`` sends; a ratio, so no host
constant: ~1.3 when the executor ran the reference loop itself, ~0.5
off the cached context); and that a finished job's result is encoded
once: ``compact_ratio`` is ``DurableJobStore.compact()`` of a store of
finished 8-rank quotes (three predicts to one 8-way compare) over
encoding those same results once with the C encoder — under 0.5 when
the snapshot splices the bytes ``mark_done`` stored (~0.25), about 4
when it re-encoded the whole store with ``json.dump``.
``result_residency_ratio`` (reported, not gated) is what those results
occupy as the store keeps them over what they occupy as the dict trees a
client parses.

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
import statistics
import sys
import tempfile
import time
import tracemalloc

from _gate import GateReport

from repro._util import encode_json
from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.persist import DurableJobStore
from repro.server import BackpressureError, DaemonThread
from repro.server.jobs import Job
from repro.server.serialize import prediction_to_dict
from repro.workloads import SyntheticBenchmark

#: The store-size-independence gate: batch size, finished jobs held by
#: the "full" store, timed rounds per side, and the allowed ratio.
ROUND_JOBS, FULL_STORE_JOBS, ROUNDS, MAX_ROUND_RATIO = 32, 2000, 9, 1.5
#: The quote-cost gate: its instance (nodes, ranks, mappings), the
#: interleaved passes over them, and the most a predict job's
#: ``execute`` may cost in reference loops.
PROBE_SHAPE, PROBE_PASSES, MAX_PREDICT_JOB_RATIO = (16, 8, 24), 15, 1.0
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


def batch_round_ms(service: CBES, app_name: str, nodes: list[str]) -> tuple[float, float]:
    """Median ``submit_batch`` + ``wait_many`` round (ms): empty store, full store.

    One daemon and one connection serve both sides; between them the
    store is filled in-process with finished jobs carrying a real result
    document, so only the number of jobs held differs.
    """
    docs = [{"kind": "predict", "app": app_name, "nodes": nodes}] * ROUND_JOBS
    with DaemonThread(service, workers=2, queue_limit=2 * ROUND_JOBS, job_ttl_s=3600.0) as srv:
        client = srv.client()

        def round_ms() -> float:
            samples = []
            for _ in range(ROUNDS):
                start = time.perf_counter()
                ids = [job["id"] for job in client.submit_batch(docs)]
                client.wait_many(ids, timeout_s=300.0, poll_interval_s=0.002)
                samples.append(time.perf_counter() - start)
            return statistics.median(samples) * 1e3

        round_ms()  # warm-up: connection, evaluator, worker threads
        empty_ms = round_ms()
        result = client.jobs(limit=1)[0]["result"]
        store = srv.daemon.store
        for _ in range(FULL_STORE_JOBS):
            job = store.create("predict", docs[0])
            store.mark_running(job.id)
            store.mark_done(job.id, result)
        full_ms = round_ms()
    return empty_ms, full_ms


def predict_job_probe() -> tuple[float, float, float]:
    """``(predict_job_us, reference_predict_us, context_cache_hit_ratio)``.

    On its own :data:`PROBE_SHAPE` instance, each pass times
    ``JobRunner.execute`` over one predict job per mapping, then
    ``evaluator.predict()`` over the same mappings; the figures are the
    medians over the passes.  The hit ratio is read off
    ``cbes_context_cache_events_total`` over the timed passes (the one
    miss is the untimed first call).
    """
    nnodes, nprocs, njobs = PROBE_SHAPE
    service, app_name = build_service(nnodes, nprocs)
    mappings = pools(service, nprocs, njobs)
    jobs = [
        Job(f"probe-{i}", "predict", {"app": app_name, "seed": 0, "options": None, "nodes": nodes})
        for i, nodes in enumerate(mappings)
    ]
    candidates = [TaskMapping(nodes) for nodes in mappings]
    with DaemonThread(service, workers=1, queue_limit=8) as srv:
        client = srv.client()
        execute = srv.daemon.runner.execute
        evaluator = service.evaluator(app_name, snapshot=srv.daemon.runner.snapshot)
        execute(jobs[0])  # the one miss: builds the context

        def events() -> dict[str, float]:
            family = client.metrics()["cbes_context_cache_events_total"]
            return {s["labels"]["event"]: s["value"] for s in family["samples"]}

        before = events()
        job_s, reference_s = [], []
        for _ in range(PROBE_PASSES):
            start = time.perf_counter()
            for job in jobs:
                execute(job)
            middle = time.perf_counter()
            for mapping in candidates:
                evaluator.predict(mapping)
            job_s.append(middle - start)
            reference_s.append(time.perf_counter() - middle)
        after = events()
    hits = after.get("hit", 0.0) - before.get("hit", 0.0)
    misses = after.get("miss", 0.0) - before.get("miss", 0.0)
    per_call = 1e6 / len(jobs)
    return (
        statistics.median(job_s) * per_call,
        statistics.median(reference_s) * per_call,
        hits / (hits + misses),
    )


def compaction_probe() -> tuple[float, float, float]:
    """``(compact_ms, encode_results_ms, result_residency_ratio)``.

    A ``DurableJobStore`` of :data:`FULL_STORE_JOBS` finished jobs on the
    :data:`PROBE_SHAPE` instance in both run modes: one ``compact()``
    (snapshot write with its fsyncs) against one C-encoder pass over the
    same result documents, best of five each.  The residency ratio is by
    ``tracemalloc``: the results as the store retains them over the same
    documents parsed into dict trees.
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

    def best_ms(call) -> float:
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
        return min(samples) * 1e3

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
        compact_ms = best_ms(store.compact)
        store.close()
    encode_ms = best_ms(lambda: [encode_json(doc) for doc in results])
    encoded = [encode_json(doc) for doc in results]
    trees = held_bytes(lambda: [json.loads(raw) for raw in encoded])
    return compact_ms, encode_ms, stored / trees


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

    empty_ms, full_ms = batch_round_ms(service, app_name, mappings[0])

    job_us, reference_us, hit_ratio = predict_job_probe()
    if job_us > MAX_PREDICT_JOB_RATIO * reference_us:
        # One re-measure before failing: a CI neighbour's burst can sink
        # a whole run of interleaved passes, but not two in a row.
        job_us, reference_us, hit_ratio = predict_job_probe()
    job_ratio = job_us / reference_us

    compact_ms, encode_ms, residency_ratio = compaction_probe()
    if compact_ms > MAX_COMPACT_RATIO * encode_ms:
        compact_ms, encode_ms, residency_ratio = compaction_probe()  # one re-measure, as above
    compact_ratio = compact_ms / encode_ms

    # Kernel (daemon) against paper loop (direct): a zero-difference gate.
    disagreements = sum(1 for a, b in zip(direct_times, daemon_times, strict=True) if a != b)
    rate = njobs / daemon_s
    overhead_ms = (daemon_s - direct_s) / njobs * 1e3

    print(f"cluster: {nnodes} nodes / {nprocs} ranks, {njobs} predict jobs, {workers} workers")
    print(f"direct evaluator : {njobs / direct_s:10.0f} predictions/s ({direct_s * 1e3:7.1f} ms total)")
    print(f"daemon round-trip: {rate:10.1f} jobs/s        ({daemon_s * 1e3:7.1f} ms total)")
    print(f"per-job service overhead: {overhead_ms:.2f} ms (HTTP + queue + store)")
    print(f"backpressure retries: {retries}, disagreements: {disagreements}")
    print(
        f"{ROUND_JOBS}-job batch round: {empty_ms:.1f} ms on an empty store, {full_ms:.1f} ms "
        f"with {FULL_STORE_JOBS} finished jobs held ({full_ms / empty_ms:.2f}x)"
    )
    print(
        f"predict job in the executor ({PROBE_SHAPE[1]} ranks): {job_us:.1f} us, reference "
        f"predict(): {reference_us:.1f} us ({job_ratio:.2f}x), context-cache hit ratio "
        f"{hit_ratio:.3f}"
    )

    print(
        f"compaction of {FULL_STORE_JOBS} finished jobs: {compact_ms:.1f} ms, encoding their "
        f"results once: {encode_ms:.1f} ms ({compact_ratio:.2f}x); results held at "
        f"{residency_ratio:.2f}x their parsed dict trees"
    )

    report = GateReport("server_throughput", mode="quick" if args.quick else "full")
    report.metric("nnodes", nnodes)
    report.metric("jobs", njobs)
    report.metric("workers", workers)
    report.metric("daemon_jobs_per_s", round(rate, 2))
    report.metric("overhead_ms_per_job", round(overhead_ms, 3))
    report.metric("backpressure_retries", retries)
    report.metric("batch_round_ms_empty_store", round(empty_ms, 2))
    report.metric("batch_round_ms_full_store", round(full_ms, 2))
    report.metric("predict_job_us", round(job_us, 2))
    report.metric("reference_predict_us", round(reference_us, 2))
    report.metric("predict_job_ratio", round(job_ratio, 3))
    report.metric("context_cache_hit_ratio", round(hit_ratio, 4))
    report.metric("compact_ms", round(compact_ms, 2))
    report.metric("encode_results_ms", round(encode_ms, 2))
    report.metric("compact_ratio", round(compact_ratio, 3))
    report.metric("result_residency_ratio", round(residency_ratio, 3))
    report.gate(
        "agreement",
        disagreements == 0,
        f"{disagreements} remote results disagree with the direct evaluator",
    )
    report.gate(
        "store_size_independence",
        full_ms <= MAX_ROUND_RATIO * empty_ms,
        f"batch round with {FULL_STORE_JOBS} finished jobs held is {full_ms / empty_ms:.2f}x "
        f"the empty-store round (limit {MAX_ROUND_RATIO}x)",
    )
    report.gate(
        "predict_job",
        job_ratio <= MAX_PREDICT_JOB_RATIO,
        f"a predict job costs {job_ratio:.2f}x one reference predict() in the executor "
        f"(limit {MAX_PREDICT_JOB_RATIO}x)",
    )
    report.gate(
        "result_encoded_once",
        compact_ratio <= MAX_COMPACT_RATIO,
        f"compacting {FULL_STORE_JOBS} finished jobs costs {compact_ratio:.2f}x encoding their "
        f"results once (limit {MAX_COMPACT_RATIO}x)",
    )
    if not args.quick:
        report.gate(
            "throughput",
            rate >= 10.0,
            f"daemon throughput {rate:.1f} jobs/s below the 10 jobs/s floor",
        )
    return report.finish()


if __name__ == "__main__":
    sys.exit(main())

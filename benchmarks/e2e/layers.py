"""Per-layer probes: each layer measured from outside, through its public calls.

A layer is a module under ``src/repro``; a probe times calls into its
public functions (in this process) or reads a public surface of the live
stack (job documents, ``client.metrics()``).  Nothing under ``src/`` is
edited to be measured.  Metric names are ``<layer>.<what>`` and match
``BENCHMARK.json``; every probe is sized to finish in well under a
second so a traced run still fits the driver's time cap.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import telemetry
from repro.core import TaskMapping
from repro.core.fast_eval import IncrementalEvaluator
from repro.fleet.hashing import rendezvous_rank
from repro.persist.journal import Journal, replay_journal
from repro.persist.store import DurableJobStore, recover_state
from repro.remap import MigrationCostModel, Remapper
from repro.schedulers import make_scheduler
from repro.search.pool import shutdown_pool
from repro.search.spec import SearchSpec
from repro.server.jobs import JobStore
from repro.server.protocol import render_response
from repro.server.serialize import (
    prediction_to_dict,
    schedule_result_to_dict,
    validate_job_payload,
)

from check import Oracle
from trace import Tracer, durations, median
from workloads import QUOTE_APP, canary_requests

BIG_APP, BIG_RANKS = "lu.A", 32
STORE_JOBS = 1000


def per_call(fn, *, budget_s: float = 0.08, batch: int = 1, least: int = 5) -> float:
    """Median seconds per call of *fn* over batches run for about *budget_s*."""
    samples: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < least or time.perf_counter() < deadline:
        started = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - started) / batch)
    return median(samples)


def counter_total(metrics: dict, name: str, **labels: str) -> float:
    """Sum of a counter family's samples whose labels include *labels*."""
    family = metrics.get(name)
    if family is None:
        return 0.0
    return sum(
        sample["value"]
        for sample in family["samples"]
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


def _mapping(service, ranks: int) -> TaskMapping:
    return TaskMapping(service.cluster.node_ids()[:ranks])


def core_probes(oracle: Oracle) -> dict[str, float]:
    service, snapshot = oracle.service, oracle.snapshot
    out: dict[str, float] = {}
    for app, ranks in ((QUOTE_APP, 8), (BIG_APP, BIG_RANKS)):
        evaluator = service.evaluator(app, snapshot=snapshot)
        mapping = _mapping(service, ranks)
        out[f"core.predict_us.{ranks}r"] = per_call(lambda: evaluator.predict(mapping)) * 1e6
    out["core.context_build_ms.32r"] = per_call(
        lambda: service.evaluator(BIG_APP, snapshot=snapshot).fast_context(), budget_s=0.15,
        least=3,
    ) * 1e3

    evaluator = service.evaluator(BIG_APP, snapshot=snapshot)
    nodes = service.cluster.node_ids()
    base = nodes[:BIG_RANKS]
    # Relocations of rank 0 onto each unused node: the SA move the
    # incremental evaluator exists for.
    moves = [TaskMapping([spare, *base[1:]]) for spare in nodes[BIG_RANKS:]]
    incremental = IncrementalEvaluator(evaluator.fast_context(), TaskMapping(base))

    def propose_all() -> None:
        for candidate in moves:
            incremental.propose(candidate)
            incremental.reject()

    out["core.propose_us.32r"] = per_call(propose_all) / len(moves) * 1e6

    context = evaluator.fast_context()
    population = [TaskMapping(nodes[i : i + BIG_RANKS]) for i in range(64)] * 4
    for backend in ("numpy", "python"):
        # The documented per-call backend selector; set only around the call.
        os.environ["REPRO_EVAL_BACKEND"] = backend
        try:
            seconds = per_call(lambda: context.evaluate_many(population), budget_s=0.15, least=3)
        finally:
            del os.environ["REPRO_EVAL_BACKEND"]
        out[f"core.batch_evals_per_s.{backend}"] = len(population) / seconds
    # Not cached: the daemon hashes its frozen snapshot once per job.
    out["core.snapshot_fingerprint_us"] = per_call(snapshot.fingerprint) * 1e6
    out["monitoring.snapshot_us"] = per_call(lambda: service.snapshot().freeze()) * 1e6
    return out


def scheduler_probes(oracle: Oracle) -> dict[str, float]:
    service, snapshot = oracle.service, oracle.snapshot
    pool = service.cluster.node_ids()
    out: dict[str, float] = {}

    def run(name: str, **execution):
        evaluator = service.evaluator(BIG_APP, snapshot=snapshot)
        return make_scheduler(name, **execution).schedule(evaluator, pool, seed=1)

    registry = telemetry.MetricsRegistry()
    with telemetry.use_registry(registry):
        cs = run("cs")
    moves = counter_total(registry.snapshot(), "cbes_sa_moves_total")
    out["schedulers.cs_ms.32r"] = cs.wall_time_s * 1e3
    out["schedulers.cs_evaluations"] = cs.evaluations
    out["schedulers.sa_moves_per_s"] = moves / cs.wall_time_s
    out["schedulers.ga_ms.32r"] = run("ga").wall_time_s * 1e3
    out["schedulers.greedy_ms.32r"] = run("greedy").wall_time_s * 1e3

    # The warm worker pool: the first parallel call pays the spawn, the
    # second finds its workers and their cached task runners.
    registry = telemetry.MetricsRegistry()
    try:
        with telemetry.use_registry(registry):
            cold = run("cs", parallel=2)
            warm = run("cs", parallel=2)
    finally:
        shutdown_pool()
    events = registry.snapshot()
    hits = counter_total(events, "cbes_worker_cache_events_total", event="hit")
    misses = counter_total(events, "cbes_worker_cache_events_total", event="miss")
    out["search.parallel2_ms.32r"] = warm.wall_time_s * 1e3
    out["search.pool_cold_spawn_ms"] = (cold.wall_time_s - warm.wall_time_s) * 1e3
    out["search.worker_cache_hit_ratio"] = hits / max(1.0, hits + misses)
    evaluator = service.evaluator(BIG_APP, snapshot=snapshot)
    out["search.spec_fingerprint_us"] = per_call(
        lambda: SearchSpec.from_evaluator(evaluator, pool).fingerprint(), least=3
    ) * 1e6

    current = _mapping(service, BIG_RANKS)
    started = time.perf_counter()
    plan = Remapper().propose(service.evaluator(BIG_APP, snapshot=snapshot), current, seed=1)
    out["remap.propose_ms.32r"] = (time.perf_counter() - started) * 1e3
    profile, latency = service.profile(BIG_APP), service.cluster.latency_model
    out["remap.migration_cost_us"] = per_call(
        lambda: MigrationCostModel().moves(
            profile, latency, current, plan.candidate, snapshot=snapshot
        )
    ) * 1e6
    return out


def _done_record(oracle: Oracle) -> dict:
    """A representative journal record: a finished predict job."""
    return {"op": "done", "id": "j000001", "result": oracle.expected(_quote(oracle))}


def _quote(oracle: Oracle) -> dict:
    return canary_requests(oracle.service.cluster.node_ids())[0]


def server_probes(oracle: Oracle) -> dict[str, float]:
    service, snapshot = oracle.service, oracle.snapshot
    quote = _quote(oracle)
    out = {"server.validate_us": per_call(lambda: validate_job_payload(service, quote)) * 1e6}
    prediction = service.evaluator(QUOTE_APP, snapshot=snapshot).predict(
        TaskMapping(quote["nodes"])
    )
    out["server.serialize_us"] = per_call(
        lambda: json.dumps(prediction_to_dict(prediction))
    ) * 1e6
    result = make_scheduler("greedy").schedule(
        service.evaluator(BIG_APP, snapshot=snapshot), service.cluster.node_ids(), seed=1
    )
    out["server.serialize_schedule_us"] = per_call(
        lambda: json.dumps(schedule_result_to_dict(result))
    ) * 1e6

    answer = oracle.expected(quote)
    _, payload = validate_job_payload(service, quote)
    store = JobStore()

    def lifecycle() -> None:
        job = store.create("predict", payload)
        store.mark_running(job.id)
        store.mark_done(job.id, answer)

    # Three transitions per job, on a store that grows as the daemon's does.
    out["server.jobstore_transition_us"] = per_call(lifecycle, batch=STORE_JOBS // 10) / 3 * 1e6
    listed = JobStore()
    for _ in range(STORE_JOBS):
        job = listed.create("predict", payload)
        listed.mark_running(job.id)
        listed.mark_done(job.id, answer)

    def listing() -> None:
        body = render_response(200, {"jobs": [job.to_dict() for job in listed.list()]})
        json.loads(body[body.index(b"\r\n\r\n") + 4 :])

    out["server.list_jobs_ms_at_1000"] = per_call(listing, budget_s=0.15, least=3) * 1e3

    async def hops() -> float:
        """Event loop -> worker thread -> event loop, as the daemon runs a job.

        The loop idles 2 ms before each hop, as a daemon between the
        requests of a closed-loop client does: a thread woken from idle
        costs three times one woken hot.
        """
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=2) as executor:
            samples = []
            for _ in range(100):
                await asyncio.sleep(0.002)
                started = time.perf_counter()
                await loop.run_in_executor(executor, int)
                samples.append(time.perf_counter() - started)
        return median(samples)

    out["server.executor_hop_us"] = asyncio.run(hops()) * 1e6
    out["telemetry.counter_inc_ns"] = per_call(
        telemetry.MetricsRegistry().counter("probe_total", "probe").inc, batch=1000
    ) * 1e9
    return out


def persist_probes(oracle: Oracle, workdir: Path) -> dict[str, float]:
    record = _done_record(oracle)
    out: dict[str, float] = {}
    for policy in ("always", "interval", "never"):
        with Journal(workdir / f"probe-{policy}.wal", fsync=policy) as journal:
            out[f"persist.append_us.{policy}"] = per_call(
                lambda: journal.append(record), budget_s=0.15
            ) * 1e6

    quote = _quote(oracle)
    _, payload = validate_job_payload(oracle.service, quote)
    data_dir = workdir / "probe-store"
    store = DurableJobStore(data_dir, fsync="never")
    for _ in range(STORE_JOBS):
        job = store.create("predict", payload)
        store.mark_running(job.id)
        store.mark_done(job.id, record["result"])
    records = store.journal.records
    started = time.perf_counter()
    recover_state(None, replay_journal(store.journal.path))
    out["persist.replay_records_per_s"] = records / (time.perf_counter() - started)
    store.close()
    started = time.perf_counter()
    store = DurableJobStore(data_dir, fsync="never")  # replays, then compacts once
    out["persist.recover_ms_at_1000"] = (time.perf_counter() - started) * 1e3
    out["persist.compact_ms_at_1000"] = per_call(store.compact, budget_s=0.1, least=3) * 1e3
    store.close()
    return out


def live_probes(stack, quote: dict) -> dict[str, float]:
    """Probes against the running stack (router in front of one replica)."""
    out: dict[str, float] = {}
    with stack.client(direct=True) as direct, stack.client() as front:
        out["server.http_rtt_ms"] = per_call(direct.healthz, budget_s=0.2) * 1e3
        jobs: list[dict] = []
        out["server.submit_ms"] = per_call(
            lambda: jobs.append(direct.submit(**quote)), budget_s=0.2
        ) * 1e3
        direct.wait_many([job["id"] for job in jobs], poll_interval_s=0.005)

        job_id = front.wait(front.submit(**quote)["id"], poll_interval_s=0.002)["id"]
        via_router, straight = [], []
        for _ in range(150):
            for client, samples in ((front, via_router), (direct, straight)):
                started = time.perf_counter()
                client.job(job_id)
                samples.append(time.perf_counter() - started)
        out["fleet.hop_ms"] = (median(via_router) - median(straight)) * 1e3

        batch = [quote] * 32
        via_router, straight = [], []
        for _ in range(5):
            for client, samples in ((front, via_router), (direct, straight)):
                started = time.perf_counter()
                accepted = client.submit_batch(batch)
                samples.append(time.perf_counter() - started)
                client.wait_many([job["id"] for job in accepted], poll_interval_s=0.005)
        out["fleet.batch_fanout_ms"] = (median(via_router) - median(straight)) * 1e3
        out["telemetry.metrics_scrape_ms"] = per_call(front.metrics, budget_s=0.15, least=3) * 1e3
    key = "8f14e45fceea167a5a36dedd4bea2543"
    for count in (2, 8):
        backends = [f"127.0.0.1:{9000 + i}" for i in range(count)]
        out[f"fleet.rendezvous_us.{count}"] = per_call(
            lambda: rendezvous_rank(key, backends)
        ) * 1e6
    return out


def replay_parts(oracle: Oracle, requests: list[dict], workdir: Path, fsync: str) -> dict:
    """Replay a sample of the workload's requests in-process, under spans.

    The calls are the daemon's, in its order — validate, evaluator,
    predict or schedule, serialize — plus the three journal appends a
    durable job costs, so ``server.exec`` (measured from the job
    documents) can be compared with the sum of its parts.
    """
    tracer = Tracer()
    with Journal(workdir / "replay.wal", fsync=fsync) as journal:
        for index, doc in enumerate(requests):
            with tracer.span("replay", request_id=f"replay-{index}"):
                with tracer.span("persist.append"):
                    journal.append({"op": "create", "id": "r", "kind": doc["kind"],
                                    "payload": doc, "request_id": ""})
                with tracer.span("persist.append"):
                    journal.append({"op": "running", "id": "r"})
                result = oracle.expected(doc, tracer)
                with tracer.span("persist.append"):
                    journal.append({"op": "done", "id": "r", "result": result})

    def per_request(name: str) -> float:
        return sum(durations(tracer.spans, name)) / len(requests)

    parts = {
        name: per_request(name)
        for name in ("server.validate", "core.evaluator", "core.predict", "schedulers.schedule",
                     "server.serialize", "monitoring.fingerprint", "persist.append")
    }
    return {"parts": parts, "spans": tracer.spans}

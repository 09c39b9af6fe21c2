#!/usr/bin/env python3
"""The CBES service benchmark: four workloads through the real stack.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

boots ``repro serve`` (and, for three workloads, a ``repro fleet``
router in front of it) as subprocesses, drives them from this one
process with one closed-loop client thread, checks every answer against
an in-process oracle, and prints every metric by name with its unit.
The last line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``): the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Without ``--workload`` every workload that
``BENCHMARK.json`` lists runs in turn.
See ``README.md`` beside this file for the metric catalogue.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import stack

if not (stack.SRC_DIR / "repro").is_dir():
    sys.exit(f"error: no CBES sources at {stack.SRC_DIR}; the benchmark measures the repository")
sys.path.insert(0, str(stack.SRC_DIR))

from repro.cluster import centurion  # noqa: E402
from repro.server.client import BackpressureError, JobFailed, ServerError  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from check import Oracle, predicted_time  # noqa: E402
from trace import NullTracer, Tracer, median, percentile, self_times, tail_pct  # noqa: E402

SPEC_PATH = stack.REPO_ROOT / "BENCHMARK.json"
#: Repetitions per untraced run.  Each is a full set-up and then a third
#: of ``--seconds`` of the same seeded requests on the fresh stack, so
#: request *k* of every repetition is the same work at the same store size.
REPS = 3
#: The host is shared: the same code runs 30 % slower in one minute
#: than in the next, for minutes on end, which no statistic over one run
#: can take out.  So the client times a fixed loop of arithmetic (see
#: :func:`reference_loop`) four times after every half second of
#: requests, and a repetition's latencies are scaled to the speed at
#: which that loop takes ``REFERENCE_S``, its time on this box in an
#: ordinary minute.  The unscaled numbers are printed as notes.
PROBE_EVERY_S = 0.5
PROBE_CHUNKS = 4
REFERENCE_S = 0.005
#: Seconds between the listings of a ``wait_many`` sweep (single jobs
#: poll at their workload's ``poll_s``).
SWEEP_POLL_S = 0.005
#: Requests replayed in-process to split ``server.exec`` into its parts.
REPLAY_SAMPLE = 200


class LostJobs(RuntimeError):
    """An acknowledged job is missing from, or twice in, the recovered store."""


FAILURES = (ServerError, JobFailed, TimeoutError, OSError, LostJobs)


@dataclass
class Measured:
    """What driving one workload produced."""

    #: What ``latency_ms`` is made from, by position in the run: one entry
    #: per request, job of a pass, round or recovery; ``None`` where it failed.
    latencies: list[float | None] = field(default_factory=list)
    #: What ``throughput_per_s`` is made from: the streaming phase's
    #: operations by position.  The same list as ``latencies`` except on
    #: ``crash_recover``, where it holds the durable quotes.
    streamed: list[float | None] = field(default_factory=list)
    #: Seconds each run of the reference loop took, between the operations.
    reference: list[float] = field(default_factory=list)
    jobs: int = 0
    window_s: float = 0.0
    #: (request, job document) of every answered job, checked afterwards.
    pairs: list[tuple[dict, dict]] = field(default_factory=list)
    #: Jobs sent, and jobs that were refused, failed, timed out or lost.
    sent: int = 0
    errors: int = 0
    refused: int = 0
    #: Predicted application times of the workload's fixed requests.
    fixed: list[float] = field(default_factory=list)
    #: Where the measured phase starts in ``pairs`` and in the tracer's spans.
    first_pair: int = 0
    first_span: int = 0
    #: ``client.metrics()`` around the streaming phase (traced runs only).
    counts_before: dict = field(default_factory=dict)
    counts_after: dict = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """The reference loop's time over ``REFERENCE_S``: its mean without the
        tenth of the samples at either end, which are the host's bursts."""
        ordered = sorted(self.reference)
        cut = len(ordered) // 10
        kept = ordered[cut : len(ordered) - cut]
        return sum(kept) / len(kept) / REFERENCE_S


def reference_loop() -> float:
    """Seconds this process takes for a fixed piece of pure-Python arithmetic."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - started


class Driver:
    """One closed-loop client thread driving one stack."""

    def __init__(self, name: str, running: stack.Stack, requests: dict, tracer) -> None:
        self.name = name
        self.poll_s = workloads.WORKLOADS[name].poll_s
        self.stack = running
        self.requests = requests
        self.tracer = tracer
        self.m = Measured()
        self._probed = 0.0
        self._connect()

    def _connect(self) -> None:
        self.client = self.stack.client()
        self.tracer.wrap(self.client, "submit", "client.submit")
        self.tracer.wrap(self.client, "submit_batch", "client.submit_batch")
        self.tracer.wrap(self.client, "job", "client.poll")
        self.tracer.wrap(self.client, "jobs", "client.list")

    def close(self) -> None:
        self.client.close()

    # -- building blocks -------------------------------------------------
    def _server_spans(self, root, job: dict) -> None:
        if job["started_at"] is None:
            return  # finished before a crash: recovery keeps the result, not the stamps
        self.tracer.add("server.queue_wait", job["created_at"], job["started_at"], root)
        self.tracer.add("server.exec", job["started_at"], job["finished_at"], root)

    def one_job(self, doc: dict) -> float | None:
        """Submit *doc* and wait for it; its latency, or ``None`` if it failed."""
        self.m.sent += 1
        started = time.monotonic()
        try:
            with self.tracer.span("request") as root:
                job = self.client.submit(**doc)
                root.request_id = job["id"]
                done = self.client.wait(job["id"], timeout_s=60.0, poll_interval_s=self.poll_s)
        except FAILURES as exc:
            self._failed(1, exc)
            return None
        latency = time.monotonic() - started
        self._server_spans(root, done)
        self.m.pairs.append((doc, done))
        return latency

    def one_batch(self, docs: list[dict]) -> float | None:
        """Submit *docs* as one batch and sweep until all are done."""
        self.m.sent += len(docs)
        started = time.monotonic()
        try:
            with self.tracer.span("request") as root:
                accepted = self.client.submit_batch(docs)
                ids = [job["id"] for job in accepted]
                root.request_id = ids[0]
                done = self.client.wait_many(ids, timeout_s=120.0, poll_interval_s=SWEEP_POLL_S)
        except FAILURES as exc:
            self._failed(len(docs), exc)
            return None
        latency = time.monotonic() - started
        for job in done:
            self._server_spans(root, job)
        self.m.pairs.extend(zip(docs, done))
        return latency

    def _failed(self, jobs: int, exc: BaseException) -> None:
        self.m.errors += jobs
        if isinstance(exc, BackpressureError):
            self.m.refused += jobs
        print(f"  failed operation ({jobs} job(s)): {type(exc).__name__}: {exc}", file=sys.stderr)
        if self.m.errors > 100 * max(1, len(self.m.pairs)):
            raise RuntimeError("the stack fails nearly every request; giving up") from exc

    def _scrape(self) -> dict:
        return self.client.metrics() if self.tracer.enabled else {}

    def _probe(self) -> None:
        """Time the reference loop if :data:`PROBE_EVERY_S` has passed since the last time."""
        if time.monotonic() - self._probed >= PROBE_EVERY_S:
            self.m.reference.extend(reference_loop() for _ in range(PROBE_CHUNKS))
            self._probed = time.monotonic()

    def _stream(self, docs: list, send, seconds: float) -> list[float | None]:
        """Send *docs* one after another (starting over if they run out) for *seconds*."""
        self.m.counts_before = self._scrape()
        latencies: list[float | None] = []
        started = time.monotonic()
        while time.monotonic() - started < seconds:
            self._probe()
            latencies.append(send(docs[len(latencies) % len(docs)]))
        done = sum(1 for latency in latencies if latency is not None)
        self.m.jobs = done * workloads.WORKLOADS[self.name].jobs_each
        self.m.window_s = time.monotonic() - started
        self.m.counts_after = self._scrape()
        return latencies

    # -- the workloads ---------------------------------------------------
    def warm_up(self) -> None:
        send = self.one_batch if self.name == "sweep_batch" else self.one_job
        for doc in self.requests["warmup"]:
            send(doc)
        if self.name != "schedule_stream":
            first = len(self.m.pairs)
            for doc in workloads.canary_requests(self.requests["nodes"]):
                self.one_job(doc)
            self.m.fixed = [predicted_time(job["result"]) for _, job in self.m.pairs[first:]]

    def measure(self, seconds: float) -> None:
        self.m.first_pair, self.m.first_span = len(self.m.pairs), len(self.tracer.spans)
        getattr(self, f"_{self.name}")(seconds)

    def _quote_stream(self, seconds: float) -> None:
        self.m.latencies = self.m.streamed = self._stream(
            self.requests["stream"], self.one_job, seconds
        )

    def _sweep_batch(self, seconds: float) -> None:
        self.m.latencies = self.m.streamed = self._stream(
            self.requests["stream"], self.one_batch, seconds
        )

    def _schedule_stream(self, seconds: float) -> None:
        """Whole passes over the fixed pairs, so every run is the same mix of jobs."""
        jobs = self.requests["stream"]
        self.m.streamed = self.m.latencies
        self.m.counts_before = self._scrape()
        started = time.monotonic()
        while True:
            elapsed = time.monotonic() - started
            passes = len(self.m.latencies) // len(jobs)
            # A pass runs whole, so start one only if half of it still fits.
            if passes and elapsed + elapsed / passes / 2 >= seconds:
                break
            first = len(self.m.pairs)
            latencies = []
            for doc in jobs:
                self._probe()
                latencies.append(self.one_job(doc))
            self.m.latencies.extend(latencies)
            if None not in latencies:
                self.m.fixed = [predicted_time(job["result"]) for _, job in self.m.pairs[first:]]
            self.m.jobs += sum(1 for latency in latencies if latency is not None)
        self.m.window_s = time.monotonic() - started
        self.m.counts_after = self._scrape()

    def _crash_recover(self, seconds: float) -> None:
        """Crash cycles first (the store then holds exactly 128 jobs per
        cycle whatever the quote rate), durable quotes for the rest."""
        started = time.monotonic()
        acknowledged: list[str] = []
        for batch in self.requests["batches"]:
            self._probe()
            self.m.sent += len(batch)
            try:
                with self.tracer.span("recovery") as root:
                    accepted = self.client.submit_batch(batch)
                    ids = [job["id"] for job in accepted]
                    root.request_id = ids[0]
                    self.stack.crash_replica()
                    self.close()
                    respawned = time.monotonic()
                    with self.tracer.span("server.boot"):
                        self.stack.respawn_replica()
                    self._connect()
                    done = self.client.wait_many(
                        ids, timeout_s=120.0, poll_interval_s=SWEEP_POLL_S
                    )
                    recovered = time.monotonic() - respawned
                acknowledged.extend(ids)
                listed = Counter(job["id"] for job in self.client.jobs())
                lost_or_doubled = sum(1 for job_id in acknowledged if listed[job_id] != 1)
                if lost_or_doubled:
                    raise LostJobs(f"{lost_or_doubled} acknowledged job(s) lost or duplicated")
            except FAILURES as exc:
                self._failed(len(batch), exc)
                self.m.latencies.append(None)
                if self.stack.replica.proc.poll() is not None:
                    self.stack.respawn_replica()
                    self._connect()
                continue
            self.m.latencies.append(recovered)
            self.m.pairs.extend(zip(batch, done))
        remaining = max(seconds / 4, seconds - (time.monotonic() - started))
        self.m.streamed = self._stream(self.requests["stream"], self.one_job, remaining)


# -- one set-up: database, stack, warm-up ---------------------------------
@dataclass
class Ready:
    running: stack.Stack
    driver: Driver
    setup_s: float
    #: Spawn to healthy of the replica's first incarnation.
    boot_s: float


def boot(name: str, workdir: Path, db: Path, requests: dict, tracer) -> Ready:
    """Spawn the stack over *db* and warm it up; ``setup_s`` covers just that."""
    workload = workloads.WORKLOADS[name]
    started = time.monotonic()
    running = stack.Stack(workdir, db, fsync=workload.fsync, router=workload.router)
    try:
        running.start()
        driver = Driver(name, running, requests, tracer)
        driver.warm_up()
    except BaseException:
        running.stop()
        raise
    return Ready(running, driver, time.monotonic() - started, running.boot_s)


def set_up(name: str, workdir: Path, requests: dict, db: Path | None) -> Ready:
    """Everything a user pays before the first request: calibrate, profile, boot, warm up.

    A run builds its own database; only ``selftest.py`` passes one in,
    to try four workloads in the time of one.
    """
    started = time.monotonic()
    workdir.mkdir()
    if db is None:
        stack.build_db(workdir / "db")
    ready = boot(name, workdir, db or workdir / "db", requests, NullTracer())
    ready.setup_s = time.monotonic() - started
    return ready


def tear_down(ready: Ready) -> int:
    ready.driver.close()
    ready.running.stop()
    return ready.running.leaked


# -- the two kinds of run ---------------------------------------------------
def check(oracle: Oracle, measured: list[Measured]) -> tuple[int, int]:
    """(attempted, failed) over everything sent, warm-ups included."""
    attempted = sum(m.sent for m in measured)
    failed = sum(m.errors + oracle.count_failed(m.pairs) for m in measured)
    return attempted, failed


def by_position(series: list[list[float | None]]) -> list[float]:
    """Per position, the median of the repetitions that answered it.

    Only positions that every repetition reached count, so the value is
    made of the same requests whatever the machine's speed was, and a
    burst of noise has to hit the same request in most repetitions to
    move its number.
    """
    values = []
    for column in zip(*series):
        answered = [latency for latency in column if latency is not None]
        if answered:
            values.append(median(answered))
    return values


def at_reference_speed(m: Measured, latencies: list[float | None]) -> list[float | None]:
    return [None if latency is None else latency / m.slowdown for latency in latencies]


def latency_ms(name: str, measured: list[Measured], *, scaled: bool = True) -> float:
    series = [at_reference_speed(m, m.latencies) if scaled else m.latencies for m in measured]
    values = by_position(series)
    if workloads.WORKLOADS[name].mean_latency:
        return sum(values) / len(values) * 1e3
    return median(values) * 1e3


def throughput_per_s(name: str, measured: list[Measured], *, scaled: bool = True) -> float:
    """Jobs a second of the closed loop: jobs per operation over the mean operation."""
    series = [at_reference_speed(m, m.streamed) if scaled else m.streamed for m in measured]
    values = by_position(series)
    return workloads.WORKLOADS[name].jobs_each * len(values) / sum(values)


def run_end_to_end(
    name: str, seed: int, seconds: float, workdir: Path, reps: int, db: Path | None
) -> dict:
    nodes = stack_nodes()
    requests = {**workloads.generate(name, seed, seconds / reps, nodes), "nodes": nodes}
    setups, rss, measured, leaked = [], [], [], 0
    for rep in range(reps):
        ready = set_up(name, workdir / f"rep{rep}", requests, db)
        try:
            setups.append(ready.setup_s)
            ready.driver.measure(seconds / reps)
            rss.append(ready.running.peak_rss_mb())
        finally:
            leaked += tear_down(ready)
        measured.append(ready.driver.m)
    # Every repetition calibrated and profiled its own database; they
    # are the same database, or the oracle of one finds the others wrong.
    attempted, failed = check(Oracle(db or workdir / "rep0" / "db"), measured)
    fixed = measured[-1].fixed
    metrics = {
        "setup_s": median(setups),
        "latency_ms": latency_ms(name, measured),
        "throughput_per_s": throughput_per_s(name, measured),
        "rss_mb": median(rss),
        "predicted_sim_s_mean": sum(fixed) / len(fixed),
    }
    notes = {"setups_s": setups, "rss_mb": rss,
             "host_slowdown": [m.slowdown for m in measured],
             "unscaled_latency_ms": latency_ms(name, measured, scaled=False),
             "unscaled_throughput_per_s": throughput_per_s(name, measured, scaled=False),
             "latency_samples": [len(m.latencies) for m in measured],
             "jobs": [m.jobs for m in measured], "window_s": [m.window_s for m in measured],
             "leaked_process_groups": leaked}
    return {"attempted": attempted, "failed": failed + leaked, "metrics": metrics, "notes": notes}


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Half the time untraced, half traced on a fresh stack, then the layer probes."""
    nodes = stack_nodes()
    requests = {**workloads.generate(name, seed, seconds, nodes), "nodes": nodes}
    db = workdir / "db"
    timings = stack.build_db(db)
    oracle = Oracle(db)
    tracer = Tracer()
    leaked = 0
    halves: list[Measured] = []
    for label, half_tracer in (("untraced", NullTracer()), ("traced", tracer)):
        (workdir / label).mkdir()
        ready = boot(name, workdir / label, db, requests, half_tracer)
        try:
            ready.driver.measure(seconds / 2)
            halves.append(ready.driver.m)
            if label == "traced":
                timings["server.boot_s"] = ready.boot_s
                if ready.running.router is None:
                    ready.running.add_router()
                with tracer.span("probes.live"):
                    live = layers.live_probes(ready.running, workloads.canary_requests(nodes)[0])
        finally:
            leaked += tear_down(ready)
    plain, traced = halves
    with tracer.span("probes.core"):
        values = layers.core_probes(oracle)
    with tracer.span("probes.schedulers"):
        values.update(layers.scheduler_probes(oracle))
    with tracer.span("probes.server"):
        values.update(layers.server_probes(oracle))
    with tracer.span("probes.persist"):
        values.update(layers.persist_probes(oracle, workdir))
    values.update(live)

    sample = [doc for doc, _ in traced.pairs[-REPLAY_SAMPLE:]] if name != "schedule_stream" \
        else requests["stream"]
    replay = layers.replay_parts(oracle, sample, workdir, workloads.WORKLOADS[name].fsync)
    attempted, failed = check(oracle, halves)

    values.update(workload_layers(traced, tracer, replay, values["server.executor_hop_us"]))
    plain_ms, traced_ms = latency_ms(name, [plain]), latency_ms(name, [traced])
    values["trace_overhead_pct"] = (traced_ms / plain_ms - 1.0) * 100.0
    values["cluster.calibrate_s"] = timings["calibrate_s"]
    values["profiling.profile_s.lu_A_32"] = timings["profile_s.lu.A"]
    values["profiling.db_load_s"] = oracle.db_load_s
    values["server.boot_s"] = timings["server.boot_s"]

    trace_path = stack.OUT_DIR / f"trace-{name}.json"
    tracer.spans.extend(replay["spans"])
    tracer.dump(trace_path, workload=name, seed=seed)
    notes = {"trace_file": str(trace_path.relative_to(stack.REPO_ROOT)),
             "spans": len(tracer.spans), "self_time_s": self_times(tracer.spans),
             "replay_parts_s": replay["parts"], "leaked_process_groups": leaked,
             "untraced_latency_ms": plain_ms, "traced_latency_ms": traced_ms}
    return {"attempted": attempted, "failed": failed + leaked, "metrics": values, "notes": notes}


def workload_layers(m: Measured, tracer: Tracer, replay: dict, hop_us: float) -> dict[str, float]:
    """Per-layer numbers read off the traced half: job documents, spans, counters."""
    jobs = [job for _, job in m.pairs[m.first_pair :] if job["started_at"] is not None]
    spans = tracer.spans[m.first_span :]
    waits = [job["started_at"] - job["created_at"] for job in jobs]
    execs = [job["finished_at"] - job["started_at"] for job in jobs]
    requests = [span.duration for span in spans if span.name == "request"]
    polls = sum(1 for span in spans if span.name in ("client.poll", "client.list"))
    tail = tail_pct(len(requests))

    def delta(name: str, **labels: str) -> float:
        return layers.counter_total(m.counts_after, name, **labels) - layers.counter_total(
            m.counts_before, name, **labels
        )

    streamed = max(1, m.jobs)
    hits = delta("cbes_context_cache_events_total", event="hit")
    misses = delta("cbes_context_cache_events_total", event="miss")
    parts = replay["parts"]
    # What [started_at, finished_at] spans in the daemon: the "running"
    # journal record, the hop onto a worker thread and back, the job itself.
    exec_parts = (parts["persist.append"] / 3 + hop_us / 1e6 + parts["core.evaluator"]
                  + parts["core.predict"] + parts["schedulers.schedule"]
                  + parts["server.serialize"] + parts["monitoring.fingerprint"])
    work = parts["core.evaluator"] + parts["core.predict"] + parts["schedulers.schedule"]
    return {
        "server.queue_wait_ms": median(waits) * 1e3,
        "server.exec_ms": median(execs) * 1e3,
        "server.client.polls_per_job": polls / max(1, len(jobs)),
        "server.client.latency_p50_ms": median(requests) * 1e3,
        "server.client.latency_tail_ms": percentile(requests, tail) * 1e3,
        "server.client.latency_tail_pct": tail,
        "server.keepalive_reuse_ratio": delta("cbes_keepalive_requests_total")
        / max(1.0, delta("cbes_requests_total")),
        "server.rejected_429": delta("cbes_requests_total", status="429") + m.refused,
        "server.context_cache_hit_ratio": hits / max(1.0, hits + misses),
        "fleet.backend_retries": delta("cbes_fleet_retries_total"),
        "fleet.backend_requests_per_job": delta("cbes_fleet_backend_requests_total") / streamed,
        "persist.appends_per_job": delta("cbes_journal_appends_total") / streamed,
        "persist.bytes_per_job": delta("cbes_journal_bytes_total") / streamed,
        "core.evaluations_per_job": delta("cbes_evaluations_total") / streamed,
        "schedulers.sa_moves_per_job": delta("cbes_sa_moves_total") / streamed,
        "trace.exec_parts_ratio": exec_parts / (sum(execs) / len(execs)),
        "trace.core_share_pct": work * len(jobs) / sum(requests) * 100.0,
    }


def stack_nodes() -> list[str]:
    return centurion().node_ids()


# -- command line -----------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, reps: int = REPS,
    db: Path | None = None,
) -> dict:
    stack.clear_repro_env()
    workdir = stack.make_workdir(name)
    try:
        if trace:
            result = run_traced(name, seed, seconds, workdir)
        else:
            result = run_end_to_end(name, seed, seconds, workdir, reps, db)
    finally:
        stack.remove_workdir(workdir)
    result["correct"] = result["failed"] == 0
    return result


def report(name: str, seed: int, seconds: float, trace: bool, result: dict, spec: dict) -> dict:
    """Print the run for people; returns the contract's one-line document."""
    workload = workloads.WORKLOADS[name]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"{name}: no value for {missing}")
    print(f"== {name} (seed {seed}, {seconds:g} s, {'traced' if trace else 'untraced'}) ==")
    print(f"why: {workload.why}")
    print(f"latency_ms is {workload.latency_of}; throughput_per_s counts {workload.throughput_of}; "
          f"warm-up {workload.warmup} request(s)")
    print(f"environment: {json.dumps(stack.environment(workload.fsync))}")
    for key, value in result["notes"].items():
        print(f"note: {key} = {json.dumps(value)}")
    for metric in sorted(units):
        print(f"{metric:<40} {result['metrics'][metric]:>16.6g} {units[metric]}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':<40} {share:>16.6g} ratio ({result['failed']} of {result['attempted']})")
    metrics = {
        metric: {"value": result["metrics"][metric], "unit": unit} for metric, unit in units.items()
    }
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise RuntimeError(f"{name}: a metric is not finite: {metrics}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=None,
                        help="append each run's result to this file, one JSON document a line")
    args = parser.parse_args(argv)
    trace = bool(args.trace) or args.traced
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace)
        line = report(name, args.seed, args.seconds, trace, result, spec)
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": trace,
                                     "seconds": args.seconds, **line}) + "\n")
        print(json.dumps(line), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

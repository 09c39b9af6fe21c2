"""The CBES scheduling daemon: the service's routes over its parts.

This is the paper's figure-2 deployment shape made real: a long-running
process owns the calibrated :class:`~repro.core.service.CBES` facade and
its monitoring, and serves scheduling / prediction / comparison requests
from external clients over the network (API: ``docs/SERVICE.md``).

:class:`CbesDaemon` is composition plus a route table.  The
:class:`~repro.server.http.HttpService` core it extends serves the
connections; a :class:`~repro.server.jobs.JobStore` (journaled when
``data_dir`` is given) holds job state; a
:class:`~repro.server.execution.JobRunner` runs accepted jobs against a
periodically refreshed snapshot; a
:class:`~repro.server.watches.RemapWatches` drives the ``/v1/remap/*``
loops.  What is left here is the API itself: validating submissions,
the **bounded** queue contract (HTTP 429 with ``Retry-After`` instead of
queueing unboundedly, 503 while draining), and ``GET /v1/healthz``.
"""

from __future__ import annotations

import logging

from repro import telemetry
from repro.core.service import CBES
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.server.execution import JobRunner
from repro.server.http import (
    Handler,
    HttpService,
    Response,
    ServiceThread,
    metrics_response,
    query_choice,
    query_ids,
    query_int,
)
from repro.server.jobs import DuplicateJobError, Job, JobState, JobStore
from repro.server.protocol import MAX_BODY_BYTES, ApiError, HttpRequest, RawResponse
from repro.server.serialize import (
    snapshot_to_dict,
    validate_batch_payload,
    validate_job_payload,
    validate_load_events,
    validate_remap_watch,
)
from repro.server.watches import RemapWatches

__all__ = ["CbesDaemon", "DaemonThread"]

log = logging.getLogger("repro.server.daemon")


class CbesDaemon(HttpService):
    """Serves CBES requests over JSON-over-HTTP from an asyncio loop.

    Parameters
    ----------
    service:
        A calibrated :class:`CBES` facade with profiles registered
        (attach a monitor before starting if forecasted snapshots are
        wanted).
    host, port:
        Bind address; port 0 picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    workers:
        Size of the job worker pool (threads).
    queue_limit:
        Bound on jobs *waiting* for a worker; beyond it submissions get
        HTTP 429.
    job_ttl_s:
        How long finished job results stay pollable.
    refresh_interval_s:
        Period of the snapshot-refresh task; ``None`` disables refresh
        (the start-time snapshot serves forever — fine for oracle
        snapshots of a static cluster).
    drain_timeout_s:
        How long shutdown waits for queued + in-flight jobs.
    keepalive_max_requests:
        Requests served per connection before the daemon closes it
        (bounds how long one client can monopolize a handler).
    keepalive_timeout_s:
        Idle seconds the daemon waits for the next request on a
        keep-alive connection before closing it; ``None`` waits forever.
    monitor_kwargs:
        When given, the daemon owns the service's monitor lifecycle: a
        failed snapshot refresh stops and restarts monitoring with these
        ``CBES.start_monitoring`` keyword arguments.
    metrics, tracer:
        The telemetry sinks this daemon records into (defaults: fresh
        instances).  :meth:`start` installs them as the process-global
        ambient telemetry so scheduler/search instrumentation running on
        worker threads lands in the same registry; they are surfaced at
        ``GET /v1/metrics`` and ``GET /v1/traces``.
    max_traces:
        Ring-buffer size of the default tracer (ignored when *tracer*
        is given).
    data_dir:
        When given, job state is **durable**: every transition is
        journaled to this directory (see :mod:`repro.persist`), startup
        replays the journal, and jobs that were queued/running at crash
        time are re-enqueued.  Without it (the default) the original
        in-memory store serves exactly as before.
    fsync:
        Journal durability policy (``always`` / ``interval`` /
        ``never``); only meaningful with *data_dir*.
    replica_id:
        Identity this daemon reports in ``GET /v1/healthz`` (the fleet
        router sets it per replica); empty means standalone.
    max_body_bytes:
        Largest accepted request body; larger bodies are drained and
        answered 413 without dropping the keep-alive connection.
    """

    def __init__(
        self,
        service: CBES,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_limit: int = 16,
        job_ttl_s: float = 600.0,
        refresh_interval_s: float | None = None,
        drain_timeout_s: float = 30.0,
        keepalive_max_requests: int = 100,
        keepalive_timeout_s: float | None = 30.0,
        monitor_kwargs: dict | None = None,
        metrics: telemetry.MetricsRegistry | None = None,
        tracer: telemetry.Tracer | None = None,
        max_traces: int = 64,
        data_dir: str | None = None,
        fsync: str = "interval",
        replica_id: str = "",
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if refresh_interval_s is not None and refresh_interval_s <= 0:
            raise ValueError("refresh_interval_s must be > 0")
        super().__init__(
            name="daemon",
            metric_prefix="cbes",
            host=host,
            port=port,
            metrics=metrics if metrics is not None else telemetry.MetricsRegistry(),
            keepalive_max_requests=keepalive_max_requests,
            keepalive_timeout_s=keepalive_timeout_s,
            max_body_bytes=max_body_bytes,
        )
        self._service = service
        self._replica_id = replica_id
        self._tracer = tracer if tracer is not None else telemetry.Tracer(max_traces=max_traces)
        m = self._metrics
        self._m_evicted = m.counter(
            "cbes_jobs_evicted_total", "Terminal jobs dropped by TTL eviction."
        )
        self._m_batches = m.counter(
            "cbes_batch_submissions_total", "Accepted POST /v1/jobs:batch requests."
        )
        m.gauge(
            "cbes_uptime_seconds",
            "Seconds since the daemon started.",
            callback=lambda: self.uptime_s,
        )
        self._durable = data_dir is not None
        if data_dir is not None:
            # Imported here, not at module top: repro.persist builds on
            # repro.server.jobs, so a top-level import would be circular.
            from repro.persist.store import DurableJobStore

            self._store: JobStore = DurableJobStore(
                data_dir,
                ttl_s=job_ttl_s,
                on_evict=self._on_job_evicted,
                fsync=fsync,
                metrics=m,
            )
        else:
            self._store = JobStore(ttl_s=job_ttl_s, on_evict=self._on_job_evicted)
        self.runner = JobRunner(
            service,
            self._store,
            workers=workers,
            queue_limit=queue_limit,
            refresh_interval_s=refresh_interval_s,
            drain_timeout_s=drain_timeout_s,
            monitor_kwargs=monitor_kwargs,
            metrics=m,
            tracer=self._tracer,
        )
        self.watches = RemapWatches(service, self.runner, m)

    def routes(self) -> dict[tuple[str, str], Handler]:
        return {
            ("POST", "/v1/jobs"): self._submit,
            ("GET", "/v1/jobs"): self._list_jobs,
            ("POST", "/v1/jobs:batch"): self._submit_batch,
            ("GET", "/v1/jobs/{id}"): self._get_job,
            ("POST", "/v1/remap/watch"): self._create_watch,
            ("GET", "/v1/remap/watch"): self._list_watches,
            ("GET", "/v1/remap/decisions"): self._list_decisions,
            ("POST", "/v1/load"): self._inject_load,
            ("GET", "/v1/healthz"): self._healthz,
            ("GET", "/v1/snapshot"): self._get_snapshot,
            ("GET", "/v1/profiles"): self._get_profiles,
            ("GET", "/v1/metrics"): self._get_metrics,
            ("GET", "/v1/traces"): self._get_traces,
        }

    # -- properties -----------------------------------------------------
    @property
    def service(self) -> CBES:
        return self._service

    @property
    def store(self) -> JobStore:
        return self._store

    @property
    def snapshot_refreshes(self) -> int:
        """How many times the refresh task swapped in a fresher snapshot."""
        return self.runner.snapshot_refreshes

    @property
    def tracer(self) -> telemetry.Tracer:
        """The tracer served at ``GET /v1/traces``."""
        return self._tracer

    def _on_job_evicted(self, job: Job, age_s: float) -> None:
        self._m_evicted.inc()

    # -- lifecycle hooks ------------------------------------------------
    async def _on_start(self) -> None:
        """Start workers + the refresh task; re-enqueue recovered jobs."""
        # Worker threads (and any in-process scheduler) record into this
        # daemon's registry through the ambient global fallback.
        telemetry.set_registry(self._metrics)
        telemetry.set_tracer(self._tracer)
        await self.runner.start()
        if self._durable:
            recovered = self._store.take_recovered()
            for job in recovered:
                self.runner.enqueue(job)
            if recovered:
                log.info(
                    "re-enqueued %d recovered job(s): %s",
                    len(recovered),
                    " ".join(job.id for job in recovered),
                )

    async def _on_stop(self, drain: bool) -> None:
        """With *drain*, finish accepted jobs; then release everything."""
        await self.watches.stop()
        await self.runner.stop(drain=drain)
        if telemetry.get_registry() is self._metrics:
            telemetry.set_registry(None)
        if telemetry.get_tracer() is self._tracer:
            telemetry.set_tracer(None)
        if self._durable:
            self._store.close()
        log.info("daemon jobs at stop: %s", self._store.counts())

    # -- jobs -----------------------------------------------------------
    def _accept(self, request: HttpRequest, entries: list[dict], validated: list) -> list[Job]:
        """Create and enqueue one job per validated entry, all or nothing.

        The queue must have room for *every* job (else 429, nothing
        queued) and no caller-supplied id may collide (else 409, nothing
        queued).  The queue itself is unbounded (recovery may overfill
        it); the client contract — 429 beyond ``queue_limit`` waiting
        jobs — is enforced here.  Submit handlers run on the event loop
        with no awaits between this check and the enqueues, so
        concurrent submits cannot interleave into a partially accepted
        batch.
        """
        free, limit = self.runner.free_slots, self.runner.queue_limit
        if len(validated) > free:
            message = (
                f"job queue is full ({limit} waiting); retry later"
                if len(validated) == 1
                else f"batch of {len(validated)} jobs exceeds free queue capacity "
                f"({free} of {limit}); retry later or split the batch"
            )
            raise ApiError(429, "queue-full", message, headers={"Retry-After": "1"})
        jobs: list[Job] = []
        try:
            for (kind, payload), entry in zip(validated, entries):
                jobs.append(
                    self._store.create(
                        kind, payload, request_id=request.request_id, job_id=entry.get("id")
                    )
                )
        except DuplicateJobError as exc:
            for job in jobs:  # roll back: nothing is enqueued yet
                self._store.discard(job.id)
            raise ApiError(409, "duplicate-job", str(exc)) from None
        for job in jobs:
            self.runner.enqueue(job)
        self._store.evict_expired()
        log.info(
            "req=%s queued %d job(s): %s",
            request.request_id,
            len(jobs),
            " ".join(f"{job.id}({job.kind} app={job.payload['app']})" for job in jobs),
        )
        return jobs

    async def _submit(self, request: HttpRequest) -> Response:
        if self._draining:
            raise ApiError(503, "shutting-down", "daemon is draining; submit elsewhere")
        doc = request.json()
        (job,) = self._accept(request, [doc], [validate_job_payload(self._service, doc)])
        return 202, {"job": job.to_dict()}, {}

    async def _submit_batch(self, request: HttpRequest) -> Response:
        """``POST /v1/jobs:batch``: N scenarios in one request, atomically.

        All-or-nothing at both stages: every entry must validate (else
        400 naming the bad index, nothing queued) and :meth:`_accept`
        must take the *whole* batch.  Jobs for one application then
        share one evaluation-context build (see
        :meth:`~repro.server.execution.JobRunner.context_for`).
        """
        if self._draining:
            raise ApiError(503, "shutting-down", "daemon is draining; submit elsewhere")
        doc = request.json()
        validated = validate_batch_payload(self._service, doc)  # before doc["jobs"] is read
        jobs = self._accept(request, doc["jobs"], validated)
        self._m_batches.inc()
        return 202, {"jobs": [job.to_dict() for job in jobs], "count": len(jobs)}, {}

    async def _get_job(self, request: HttpRequest) -> Response:
        job_id = request.params["id"]
        try:
            job = self._store.get(job_id)
        except KeyError:
            raise ApiError(
                404, "not-found", f"no job {job_id!r} (unknown, or expired past TTL)"
            ) from None
        return 200, RawResponse(b'{"job":' + job.to_json() + b"}", "application/json"), {}

    async def _list_jobs(self, request: HttpRequest) -> Response:
        """``GET /v1/jobs``: listing with ``state``/``limit``/``after``, or lookup by ``ids``."""
        state = query_choice(request.query, "state", [s.value for s in JobState])
        limit = query_int(request.query, "limit", minimum=0)
        after = request.query.get("after", [None])[0]
        ids = query_ids(request.query)
        try:
            jobs = self._store.list(state=state, limit=limit, after=after, ids=ids)
        except KeyError:
            raise ApiError(
                400, "bad-request", f"unknown 'after' job id {after!r} (evicted or never existed)"
            ) from None
        body = b'{"jobs":[' + b",".join(job.to_json() for job in jobs) + b"]}"
        return 200, RawResponse(body, "application/json"), {}

    # -- remap watches --------------------------------------------------
    async def _create_watch(self, request: HttpRequest) -> Response:
        """``POST /v1/remap/watch``: register a background remap loop."""
        if self._draining:
            raise ApiError(503, "shutting-down", "daemon is draining; no new watches")
        watch = self.watches.create(validate_remap_watch(self._service, request.json()))
        return 201, {"watch": watch.to_dict()}, {}

    async def _list_watches(self, request: HttpRequest) -> Response:
        return 200, {"watches": self.watches.to_dicts()}, {}

    async def _list_decisions(self, request: HttpRequest) -> Response:
        return 200, {"decisions": self.watches.decisions(query_int(request.query, "limit"))}, {}

    async def _inject_load(self, request: HttpRequest) -> Response:
        """``POST /v1/load``: set background/NIC load on cluster nodes.

        The test/demo lever for the closed loop: it mutates the daemon's
        *simulated* cluster (the same thing the monitor measures), then
        adopts a fresh snapshot immediately so watches and jobs see the
        new conditions without waiting out the refresh interval.
        """
        events = validate_load_events(self._service, request.json())
        LoadGenerator(self._service.cluster).apply(
            [LoadEvent(e["node"], cpu_load=e["cpu_load"], nic_load=e["nic_load"]) for e in events]
        )
        self.runner.adopt_snapshot(self.runner.poll_snapshot())
        return 200, {"applied": events, "snapshot_fingerprint": self.runner.serving[1]}, {}

    # -- reads ----------------------------------------------------------
    async def _get_snapshot(self, request: HttpRequest) -> Response:
        return 200, {"snapshot": snapshot_to_dict(self.runner.snapshot)}, {}

    async def _get_profiles(self, request: HttpRequest) -> Response:
        return 200, {"applications": self._service.profiled_applications}, {}

    async def _get_metrics(self, request: HttpRequest) -> Response:
        return metrics_response(self._metrics.snapshot(), request.query)

    async def _get_traces(self, request: HttpRequest) -> Response:
        return 200, {"traces": self._tracer.traces(query_int(request.query, "limit"))}, {}

    async def _healthz(self, request: HttpRequest) -> Response:
        runner = self.runner
        doc = {
            "status": "draining" if self._draining else "ok",
            "uptime_s": self.uptime_s,
            "workers": runner.workers,
            "queue_depth": runner.queue_depth,
            "queue_limit": runner.queue_limit,
            "jobs": self._store.counts(),
            "snapshot_fingerprint": runner.serving[1],
            "snapshot_refreshes": runner.snapshot_refreshes,
            "monitoring": self._service.is_monitoring,
            "remap_watches": len(self.watches),
            "remap_decisions": self.watches.decision_count,
        }
        if self._replica_id:
            doc["replica"] = self._replica_id
        if self._durable:
            doc["persistence"] = {
                "data_dir": str(self._store.data_dir),
                "journal_records": self._store.journal.records,
                "journal_bytes": self._store.journal.size_bytes,
                "compactions": self._store.compactions,
                "recovered_terminal": self._store.recovered_terminal,
            }
        return 200, doc, {}


class DaemonThread(ServiceThread):
    """Run a :class:`CbesDaemon` on a dedicated thread and event loop.

    The blocking convenience used by tests, examples and benchmarks::

        with DaemonThread(service) as server:
            client = server.client()
            ...

    Exiting the ``with`` block requests shutdown and joins the thread
    (draining in-flight jobs, like SIGTERM would).
    """

    def __init__(self, service: CBES, *, startup_timeout_s: float = 30.0, **daemon_kwargs):
        self.daemon = CbesDaemon(service, **daemon_kwargs)
        super().__init__(self.daemon, startup_timeout_s=startup_timeout_s)

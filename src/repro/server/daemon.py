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
from repro.server.config import HTTP_FIELDS, daemon_config
from repro.server.execution import JobRunner
from repro.server.http import (
    MAX_WAIT_S,
    Handler,
    HttpService,
    Response,
    ServiceThread,
    metrics_response,
    query_choice,
    query_ids,
    query_int,
    query_seconds,
)
from repro.server.jobs import DuplicateJobError, Job, JobState, JobStore
from repro.server.protocol import ApiError, HttpRequest, RawResponse, lookup_body
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


def _final(jobs: list[Job]) -> bool:
    """Whether a held lookup of *jobs* can answer: all are final, or one failed."""
    return all(job.state.is_terminal for job in jobs) or any(
        job.state is JobState.FAILED for job in jobs
    )


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
    monitor_kwargs:
        When given, the daemon owns the service's monitor lifecycle: a
        failed snapshot refresh stops and restarts monitoring with these
        ``CBES.start_monitoring`` keyword arguments.
    metrics, tracer:
        The telemetry sinks this daemon records into (defaults: fresh
        instances).  Each job thread enters this daemon's registry
        (``JobRunner._work``), so scheduler/search instrumentation
        running on it lands here and not in another daemon's; every job
        is a ``cbes.job`` trace on the tracer.  They are surfaced at
        ``GET /v1/metrics`` and ``GET /v1/traces``.
    settings:
        One keyword per row of :data:`~repro.server.config.DAEMON_FIELDS`
        (default, check and meaning are there).  With ``data_dir`` every
        job transition is journaled (:mod:`repro.persist`), and a restart
        replays it and re-enqueues jobs that were queued or running.
    """

    def __init__(
        self,
        service: CBES,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        monitor_kwargs: dict | None = None,
        metrics: telemetry.MetricsRegistry | None = None,
        tracer: telemetry.Tracer | None = None,
        **settings,
    ) -> None:
        config = daemon_config(**settings)
        super().__init__(
            name="daemon",
            metric_prefix="cbes",
            host=host,
            port=port,
            metrics=metrics if metrics is not None else telemetry.MetricsRegistry(),
            **{name: config[name] for name in HTTP_FIELDS},
        )
        self._service = service
        self._replica_id = config["replica_id"]
        self._tracer = tracer if tracer is not None else telemetry.Tracer()
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
        self._durable = config["data_dir"] is not None
        if self._durable:
            # Imported here, not at module top: repro.persist builds on
            # repro.server.jobs, so a top-level import would be circular.
            from repro.persist.store import DurableJobStore

            self._store: JobStore = DurableJobStore(
                config["data_dir"],
                ttl_s=config["job_ttl_s"],
                on_evict=self._on_job_evicted,
                fsync=config["fsync"],
                metrics=m,
            )
        else:
            self._store = JobStore(ttl_s=config["job_ttl_s"], on_evict=self._on_job_evicted)
        self.runner = JobRunner(
            service,
            self._store,
            workers=config["workers"],
            queue_limit=config["queue_limit"],
            refresh_interval_s=config["refresh_interval_s"],
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
        await self.runner.start()
        if self._durable:
            recovered = self._store.take_recovered()
            self.runner.enqueue(*recovered)
            if recovered:
                log.info(
                    "re-enqueued %d recovered job(s): %s",
                    len(recovered),
                    " ".join(job.id for job in recovered),
                )

    async def stop(self, *, drain: bool = True) -> None:
        """Answer every held lookup as it stands, then stop as the core does."""
        self.runner.holds.release_all()
        await super().stop(drain=drain)

    async def _on_stop(self, drain: bool) -> None:
        """With *drain*, finish accepted jobs; then release everything."""
        await self.watches.stop()
        await self.runner.stop(drain=drain)
        if self._durable:
            self._store.close()
        log.info("daemon jobs at stop: %s", self._store.counts())

    # -- jobs -----------------------------------------------------------
    def _accept(self, request: HttpRequest, entries: list[dict], validated: list) -> list[Job]:
        """Create and enqueue one job per validated entry, all or nothing.

        The queue must have room for *every* job (else 429, nothing
        queued) and no caller-supplied id may collide, with a live job
        or within the batch (else 409, nothing held or journaled).  The
        jobs are created in one store call, one journal write, and
        queued in one go.  The queue itself is unbounded (recovery may
        overfill it); the client contract — 429 beyond ``queue_limit``
        waiting jobs — is enforced here.  Submit handlers run on the
        event loop with no awaits between this check and the enqueue,
        so concurrent submits cannot interleave into a partially
        accepted batch.
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
        ids = [entry.get("id") for entry in entries]
        try:
            jobs = self._store.create_many(
                [(kind, payload, job_id) for (kind, payload), job_id in zip(validated, ids)],
                request_id=request.request_id,
            )
        except DuplicateJobError as exc:
            raise ApiError(409, "duplicate-job", str(exc)) from None
        if log.isEnabledFor(logging.INFO):  # the job list costs more than the log call
            log.info(
                "req=%s queued %d job(s): %s",
                request.request_id,
                len(jobs),
                " ".join(f"{job.id}({job.kind} app={job.payload['app']})" for job in jobs),
            )
        self.runner.enqueue(*jobs)
        self._store.evict_expired()
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
        :meth:`~repro.core.service.Generation.context`).
        """
        if self._draining:
            raise ApiError(503, "shutting-down", "daemon is draining; submit elsewhere")
        doc = request.json()
        validated = validate_batch_payload(self._service, doc)  # before doc["jobs"] is read
        jobs = self._accept(request, doc["jobs"], validated)
        self._m_batches.inc()
        return 202, {"jobs": [job.to_dict() for job in jobs], "count": len(jobs)}, {}

    def _job(self, job_id: str) -> Job:
        try:
            return self._store.get(job_id)
        except KeyError:
            raise ApiError(
                404, "not-found", f"no job {job_id!r} (unknown, or expired past TTL)"
            ) from None

    async def _get_job(self, request: HttpRequest) -> Response:
        """``GET /v1/jobs/{id}``; with ``wait_s``, held until the job is final.

        A hold ends early, or at ``wait_s`` (at most :data:`MAX_WAIT_S`),
        and then answers what the same request without it would get.
        """
        job_id = request.params["id"]
        wait_s = query_seconds(request.query, "wait_s")
        job = self._job(job_id)
        if wait_s:
            await self.runner.holds.hold(lambda: job.state.is_terminal, min(wait_s, MAX_WAIT_S))
            job = self._job(job_id)
        return 200, RawResponse(b'{"job":' + job.to_json() + b"}", "application/json"), {}

    async def _list_jobs(self, request: HttpRequest) -> Response:
        """``GET /v1/jobs``: listing with ``state``/``limit``/``after``, or lookup by ``ids``.

        A lookup with ``wait_s`` is held until every named job held here
        is final or one of them failed, as :meth:`_get_job` holds.
        """
        state = query_choice(request.query, "state", [s.value for s in JobState])
        limit = query_int(request.query, "limit", minimum=0)
        after = request.query.get("after", [None])[0]
        ids = query_ids(request.query)
        wait_s = query_seconds(request.query, "wait_s")
        if wait_s is not None and ids is None:
            raise ApiError(400, "bad-request", "wait_s holds an ids= lookup only")
        if ids is not None:  # leads with the named ids not held, whatever `state` keeps
            if wait_s:
                named = self._store.list(ids=ids)
                await self.runner.holds.hold(lambda: _final(named), min(wait_s, MAX_WAIT_S))
            held = {job.id: job for job in self._store.list(ids=ids)}
            missing = [job_id for job_id in dict.fromkeys(ids) if job_id not in held]
            jobs = [job.to_json() for job in held.values() if state in (None, job.state.value)]
            return 200, RawResponse(lookup_body(missing, jobs), "application/json"), {}
        try:
            jobs = self._store.list(state=state, limit=limit, after=after)
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
        return 200, {"decisions": self.watches.decisions(query_int(request.query, "limit", minimum=0))}, {}

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
        return 200, {"applied": events, "snapshot_fingerprint": self.runner.serving.fingerprint}, {}

    # -- reads ----------------------------------------------------------
    async def _get_snapshot(self, request: HttpRequest) -> Response:
        return 200, {"snapshot": snapshot_to_dict(self.runner.snapshot)}, {}

    async def _get_profiles(self, request: HttpRequest) -> Response:
        return 200, {"applications": self._service.profiled_applications}, {}

    async def _get_metrics(self, request: HttpRequest) -> Response:
        return metrics_response(self._metrics.snapshot(), request.query)

    async def _get_traces(self, request: HttpRequest) -> Response:
        return 200, {"traces": self._tracer.traces(query_int(request.query, "limit", minimum=0))}, {}

    async def _healthz(self, request: HttpRequest) -> Response:
        runner = self.runner
        doc = {
            "status": "draining" if self._draining else "ok",
            "uptime_s": self.uptime_s,
            "workers": runner.workers,
            "queue_depth": runner.queue_depth,
            "queue_limit": runner.queue_limit,
            "jobs": self._store.counts(),
            "snapshot_fingerprint": runner.serving.fingerprint,
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

    def __init__(self, service: CBES, **daemon_kwargs):
        self.daemon = CbesDaemon(service, **daemon_kwargs)
        super().__init__(self.daemon)

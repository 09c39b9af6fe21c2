"""Job execution for the scheduling daemon: queue, workers, snapshot.

:class:`JobRunner` is everything between "the HTTP layer accepted a job"
and "the job store holds its result".  Accepted jobs wait in a queue;
a small ``ThreadPoolExecutor`` runs them off the event loop (scheduling
is CPU-bound), reusing cached
:class:`~repro.core.fast_eval.EvaluationContext` precomputation, one per
(application, options) pair and snapshot generation; a background task
refreshes the :class:`SystemSnapshot` on a configurable interval, and a
changed snapshot ``fingerprint()`` swaps the serving snapshot and
invalidates every cached context.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro import telemetry
from repro.core.evaluation import EvaluationOptions
from repro.core.fast_eval import EvaluationContext
from repro.core.mapping import TaskMapping
from repro.core.service import CBES
from repro.monitoring.snapshot import SystemSnapshot
from repro.schedulers import make_scheduler
from repro.search.pool import (
    POOL_SPAWNS_TOTAL,
    SPEC_RESENDS_TOTAL,
    WORKER_CACHE_EVENTS_TOTAL,
)
from repro.server.jobs import Job, JobStore
from repro.server.serialize import (
    options_from_dict,
    prediction_to_dict,
    schedule_result_to_dict,
)

__all__ = ["JobRunner"]

log = logging.getLogger("repro.server.execution")


class JobRunner:
    """Runs queued jobs on worker threads against the serving snapshot.

    Parameters mirror the :class:`~repro.server.daemon.CbesDaemon`
    arguments of the same names; *store* is the daemon's job store and
    *metrics* / *tracer* its telemetry sinks.
    """

    def __init__(
        self,
        service: CBES,
        store: JobStore,
        *,
        workers: int,
        queue_limit: int,
        refresh_interval_s: float | None,
        drain_timeout_s: float,
        monitor_kwargs: dict | None,
        metrics: telemetry.MetricsRegistry,
        tracer: telemetry.Tracer,
    ) -> None:
        self._service = service
        self._store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self._refresh_interval = refresh_interval_s
        self._drain_timeout = drain_timeout_s
        self._monitor_kwargs = dict(monitor_kwargs) if monitor_kwargs else None
        self._metrics = metrics
        self._tracer = tracer
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[Job] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._tasks: list[asyncio.Task] = []
        #: ``(snapshot, fingerprint)`` — the frozen SystemSnapshot jobs and
        #: watches are served against and its digest, swapped as one
        #: value so a reader sees one generation and nobody re-hashes it.
        self.serving: tuple[SystemSnapshot, str] | None = None
        self.snapshot_refreshes = 0
        self._snapshot_adopted_at: float | None = None
        #: (app name, EvaluationOptions) -> EvaluationContext, all built
        #: from the *current* snapshot generation.
        self._contexts: dict[tuple[str, EvaluationOptions], EvaluationContext] = {}
        self._ctx_lock = threading.Lock()
        #: Serializes context *builds* so N batch jobs arriving together
        #: share one build per (app, options) instead of racing N.
        self._ctx_build_lock = threading.Lock()
        self._instrument()

    def _instrument(self) -> None:
        """Declare the execution metric families once, up front."""
        m = self._metrics
        self._m_jobs = m.counter("cbes_jobs_total", "Job state transitions.", ("kind", "state"))
        self._m_job_seconds = m.histogram(
            "cbes_job_seconds", "Job execution wall time.", ("kind",)
        )
        self._m_refreshes = m.counter(
            "cbes_snapshot_refreshes_total", "Snapshot generations adopted."
        )
        self._m_ctx_cache = m.counter(
            "cbes_context_cache_events_total",
            "Daemon-side evaluation-context cache events.",
            ("event",),
        )
        # Warm-pool families are incremented by repro.search.pool through
        # the ambient registry; declaring them here (same name/help)
        # makes them visible at /v1/metrics from the first scrape.
        m.counter(*WORKER_CACHE_EVENTS_TOTAL)
        m.counter(*POOL_SPAWNS_TOTAL)
        m.counter(*SPEC_RESENDS_TOTAL)
        m.gauge("cbes_queue_depth", "Jobs waiting for a worker.", callback=lambda: self.queue_depth)
        m.gauge(
            "cbes_queue_limit",
            "Bound of the job queue (429 beyond it).",
            callback=lambda: self.queue_limit,
        )
        m.gauge(
            "cbes_snapshot_age_seconds",
            "Seconds since the serving snapshot was adopted.",
            callback=lambda: (
                time.monotonic() - self._snapshot_adopted_at
                if self._snapshot_adopted_at is not None
                else 0.0
            ),
        )

    @property
    def snapshot(self) -> SystemSnapshot | None:
        """The serving snapshot (``None`` before :meth:`start`)."""
        return self.serving[0] if self.serving is not None else None

    # -- queue ----------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs waiting for a worker."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def free_slots(self) -> int:
        """How many more jobs fit under ``queue_limit`` (may be negative)."""
        return self.queue_limit - self.queue_depth

    def enqueue(self, job: Job) -> None:
        """Queue an accepted job; the caller has checked :attr:`free_slots`."""
        assert self._queue is not None, "job runner is not started"
        self._queue.put_nowait(job)

    def run_in_executor(self, fn, *args) -> asyncio.Future:
        """Run CPU-bound *fn* on the job worker threads."""
        assert self._loop is not None, "job runner is not started"
        return self._loop.run_in_executor(self._executor, fn, *args)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Take the first snapshot and start workers + the refresh task."""
        self._loop = asyncio.get_running_loop()
        snapshot = self._service.snapshot().freeze()
        self.serving = (snapshot, snapshot.fingerprint())
        self._snapshot_adopted_at = time.monotonic()
        # Unbounded queue, bounded by the explicit capacity checks in the
        # submit handlers: recovery may legitimately re-enqueue more jobs
        # than queue_limit, and those must never be dropped.
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="cbes-job"
        )
        self._tasks = [
            self._loop.create_task(self._worker(), name=f"cbes-worker-{i}")
            for i in range(self.workers)
        ]
        if self._refresh_interval is not None:
            self._tasks.append(
                self._loop.create_task(self._refresh_loop(), name="cbes-snapshot-refresh")
            )

    async def stop(self, *, drain: bool) -> None:
        """Stop the workers; with *drain*, finish queued + running jobs first."""
        assert self._queue is not None and self._executor is not None
        if drain:
            try:
                await asyncio.wait_for(self._queue.join(), timeout=self._drain_timeout)
            except asyncio.TimeoutError:
                log.warning(
                    "drain timeout after %.1fs; abandoning %d queued job(s)",
                    self._drain_timeout,
                    self._queue.qsize(),
                )
                while not self._queue.empty():
                    job = self._queue.get_nowait()
                    self._store.mark_failed(job.id, "daemon shut down before the job ran")
                    self._queue.task_done()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # -- snapshot refresh -----------------------------------------------
    def poll_snapshot(self):
        """Poll the monitor (if any) and return a frozen snapshot."""
        if self._service.is_monitoring:
            self._service.monitor.poll()
        return self._service.snapshot().freeze()

    def adopt_snapshot(self, snapshot) -> bool:
        """Swap in *snapshot* if its fingerprint differs; invalidate caches."""
        fingerprint = snapshot.fingerprint()
        if self.serving is not None and fingerprint == self.serving[1]:
            return False
        self.serving = (snapshot, fingerprint)
        with self._ctx_lock:
            stale = [
                key
                for key, ctx in self._contexts.items()
                if ctx.snapshot_fingerprint != fingerprint
            ]
            for key in stale:
                del self._contexts[key]
        if stale:
            self._m_ctx_cache.inc(len(stale), event="evicted")
        self._snapshot_adopted_at = time.monotonic()
        self.snapshot_refreshes += 1
        self._m_refreshes.inc()
        log.info(
            "snapshot refreshed (fingerprint %s, %d stale context(s) dropped)",
            fingerprint[:12],
            len(stale),
        )
        return True

    async def _refresh_loop(self) -> None:
        assert self._loop is not None and self._refresh_interval is not None
        while True:
            await asyncio.sleep(self._refresh_interval)
            try:
                snapshot = await self._loop.run_in_executor(None, self.poll_snapshot)
            except Exception as exc:  # noqa: BLE001 - keep the daemon alive
                log.warning("snapshot refresh failed: %s", exc)
                if self._monitor_kwargs is not None:
                    # The monitor lifecycle is idempotent, so a restart
                    # is always safe here.
                    self._service.stop_monitoring()
                    self._service.start_monitoring(**self._monitor_kwargs)
                    log.info("monitoring restarted after refresh failure")
                continue
            self.adopt_snapshot(snapshot)
            self._store.evict_expired()

    # -- job execution --------------------------------------------------
    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        self._store.mark_running(job.id)
        self._m_jobs.inc(kind=job.kind, state="running")
        queued_for = (job.started_at or 0.0) - job.created_at
        log.info("job %s (%s, req=%s) started after %.1f ms queued",
                 job.id, job.kind, job.request_id, queued_for * 1e3)
        started = time.perf_counter()
        try:
            result = await self.run_in_executor(self.execute, job)
        except asyncio.CancelledError:
            self._store.mark_failed(job.id, "daemon shut down while the job ran")
            self._m_jobs.inc(kind=job.kind, state="failed")
            raise
        except Exception as exc:  # noqa: BLE001 - job errors become job state
            error = f"{type(exc).__name__}: {exc}"
        else:
            try:
                self._store.mark_done(job.id, result)
                error = None
            except (TypeError, ValueError) as exc:
                # Encoded before the transition: the job is still running.
                error = f"result is not JSON-serialisable: {exc}"
        elapsed = time.perf_counter() - started
        if error is None:
            log.info("job %s done in %.1f ms", job.id, elapsed * 1e3)
        else:
            self._store.mark_failed(job.id, error)
            log.warning("job %s failed: %s", job.id, error)
        self._m_jobs.inc(kind=job.kind, state="done" if error is None else "failed")
        self._m_job_seconds.observe(elapsed, kind=job.kind)

    def context_for(
        self, app: str, options: EvaluationOptions, fingerprint: str, evaluator
    ) -> EvaluationContext:
        """The cached fast-eval context of (app, options), installed in *evaluator*.

        *fingerprint* is the digest :attr:`serving` holds for
        *evaluator*'s snapshot; it goes down with the snapshot, so
        neither a hit nor a build hashes anything.
        Builds are serialized behind ``_ctx_build_lock`` with a
        double-check, so a batch of N jobs for one application arriving
        together performs one context build and N-1 cache hits instead
        of N racing builds.
        """
        key = (app, options)
        with self._ctx_lock:
            context = self._contexts.get(key)
        if context is None or context.snapshot_fingerprint != fingerprint:
            with self._ctx_build_lock:
                # Re-check: another worker may have built it while we waited.
                with self._ctx_lock:
                    context = self._contexts.get(key)
                if context is None or context.snapshot_fingerprint != fingerprint:
                    self._m_ctx_cache.inc(event="miss")
                    context = evaluator.fast_context(options, fingerprint=fingerprint)
                    with self._ctx_lock:
                        self._contexts[key] = context
                    return context
        self._m_ctx_cache.inc(event="hit")
        evaluator.install_context(context, fingerprint=fingerprint)
        return context

    def execute(self, job: Job) -> dict:
        """Run one job on a worker thread; returns the JSON result doc.

        Every kind is priced by the kernel the search uses: a quote is
        the cached context's per-rank breakdown of its mapping.
        """
        payload = job.payload
        app = payload["app"]
        with self._tracer.trace(
            "cbes.job", job_id=job.id, kind=job.kind, app=app, request_id=job.request_id
        ) as span:
            options = options_from_dict(payload.get("options"))
            snapshot, fingerprint = self.serving  # one atomic read: jobs see one generation
            evaluator = self._service.evaluator(app, options=options, snapshot=snapshot)
            context = self.context_for(app, options, fingerprint, evaluator)
            if job.kind == "schedule":
                scheduler = make_scheduler(
                    payload["scheduler"],
                    parallel=payload.get("workers", 1),
                    time_budget=payload.get("time_budget"),
                )
                result = scheduler.schedule(evaluator, payload["pool"], seed=payload["seed"])
                doc = schedule_result_to_dict(result)
            else:
                candidates = [payload["nodes"]] if job.kind == "predict" else payload["mappings"]
                tables = [context.breakdown(TaskMapping(nodes)) for nodes in candidates]
                evaluator.record_evaluations(len(tables))
                if job.kind == "predict":
                    doc = prediction_to_dict(tables[0])
                else:  # compare: fastest first, ties in request order
                    tables.sort(key=lambda table: table.execution_time)
                    doc = {"ranked": [prediction_to_dict(table) for table in tables]}
                # Schedule jobs are counted by Scheduler.schedule itself;
                # counting here too would double the evaluations.
                self._metrics.counter(
                    "cbes_evaluations_total", "Mapping evaluations consumed by scheduling."
                ).inc(evaluator.evaluations)
            span.set_attribute("evaluations", evaluator.evaluations)
        doc["snapshot_fingerprint"] = fingerprint
        return doc

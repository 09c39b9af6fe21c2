"""Job execution for the scheduling daemon: queue, workers, snapshot.

:class:`JobRunner` is everything between "the HTTP layer accepted a job"
and "the job store holds its result".  Accepted jobs wait in one queue
that ``workers`` plain threads take *runs* from (scheduling is
CPU-bound, so it runs off the event loop): the job at the head of the
queue and, behind a ``predict`` / ``compare`` job, every quote queued
after it up to the next job of another kind.  The thread does each
job's transitions as well as the job itself, so the only hand-off
between accepting a job and starting it is one condition-variable
wake-up; it settles a run's outcomes together, one journal write and
one publish.  A watch tick rides the same queue as a run of one
(:meth:`JobRunner.call`); each job thread records into its daemon's
registry.  Jobs are served against the service's
:class:`~repro.core.service.Generation` the runner adopted: a frozen
:class:`SystemSnapshot`, its fingerprint and the
:class:`~repro.core.fast_eval.EvaluationContext` built from it per
(application, options) pair.  A background task refreshes the snapshot
on a configurable interval; a changed ``fingerprint()`` swaps in the
service's generation of the new one.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

from repro import telemetry
from repro._util import encode_json
from repro.core.service import CBES, CONTEXT_CACHE_EVENTS_TOTAL, Generation
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
    prediction_json,
    schedule_result_to_dict,
)

__all__ = ["Holds", "JobRunner"]

log = logging.getLogger("repro.server.execution")

#: How long a draining stop waits for queued and running jobs.
DRAIN_TIMEOUT_S = 30.0

#: Why a job accepted but never started ends ``failed``.
NOT_STARTED = "daemon shut down before the job ran"

#: The job kinds a run gathers behind one another.
QUOTES = ("predict", "compare")


def _settle(future: asyncio.Future, result, error: BaseException | None) -> None:
    """Resolve *future* on its loop, unless its awaiter gave up on it."""
    if future.done():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


@dataclass(slots=True)
class _Call:
    """A function call that rides the job queue as a run of its own."""

    fn: Callable
    args: tuple
    future: asyncio.Future
    kind = "call"

    def run(self) -> None:
        """Call it on this thread; one ``call_soon_threadsafe`` hands back the outcome."""
        try:
            result, error = self.fn(*self.args), None
        except Exception as exc:  # noqa: BLE001 - re-raised by the awaiter
            result, error = None, exc
        self.future.get_loop().call_soon_threadsafe(_settle, self.future, result, error)


class Holds:
    """Lookups held on the event loop until the jobs they name are final.

    A held request awaits one future, which resolves when its *ready*
    test passes after a run settled, when its ``call_later`` timer
    fires, or when :meth:`release_all` runs on stop.  A job thread that
    settles a run calls :meth:`finished`, which costs one plain read of
    the held count unless something is held, and one
    ``call_soon_threadsafe`` when something is.  A hold is counted
    before it first tests *ready*, so a job that ends in between is
    seen by one or the other.
    """

    def __init__(self) -> None:
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Held futures -> their ready tests; changed on the loop only,
        #: its size read by the job threads without a lock.
        self._waiting: dict[asyncio.Future, Callable[[], bool]] = {}
        self._closed = False

    def __len__(self) -> int:
        return len(self._waiting)

    async def hold(self, ready: Callable[[], bool], wait_s: float) -> None:
        """Return once ``ready()`` is true, *wait_s* has passed, or holds are released."""
        if self._closed:
            return
        loop = self._loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._waiting[future] = ready
        timer = loop.call_later(wait_s, _settle, future, None, None)
        try:
            if not ready():
                await future
        finally:
            timer.cancel()
            del self._waiting[future]

    def finished(self) -> None:
        """Jobs became terminal (any thread): re-test the holds, if there are any."""
        if self._waiting:
            self._loop.call_soon_threadsafe(self._release_ready)

    def _release_ready(self) -> None:
        for future, ready in self._waiting.items():
            if not future.done() and ready():
                future.set_result(None)

    def release_all(self) -> None:
        """Answer every held request now, and hold no new one (on stop)."""
        self._closed = True
        for future in self._waiting:
            _settle(future, None, None)


class JobRunner:
    """Runs queued jobs on worker threads against the serving snapshot.

    Parameters are the daemon settings of the same names
    (:data:`~repro.server.config.DAEMON_FIELDS`); *store* is the
    daemon's job store and *metrics* / *tracer* its telemetry sinks.
    """

    def __init__(
        self,
        service: CBES,
        store: JobStore,
        *,
        workers: int,
        queue_limit: int,
        refresh_interval_s: float,
        monitor_kwargs: dict | None,
        metrics: telemetry.MetricsRegistry,
        tracer: telemetry.Tracer,
    ) -> None:
        self._service = service
        self._store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self._refresh_interval = refresh_interval_s
        self._monitor_kwargs = dict(monitor_kwargs) if monitor_kwargs else None
        self._metrics = metrics
        self._tracer = tracer
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Accepted jobs (and calls) no worker has taken yet, oldest at
        #: the left.  Unbounded: the submit handlers check
        #: :attr:`free_slots`, and recovery may re-enqueue more than
        #: ``queue_limit`` jobs, which must never be dropped.
        self._waiting: deque[Job | _Call] = deque()
        #: Guards the queue, :attr:`_queued` and the two stop flags;
        #: idle workers wait on it.
        self._cond = threading.Condition()
        #: Jobs still ``queued``: waiting, or taken into a run that has
        #: not reached them.  Worker threads count down as jobs start.
        self._queued = 0
        #: Workers return once nothing is waiting.
        self._closing = False
        #: A run fails the jobs it has not started.
        self._stopping = False
        #: One future per worker thread, resolved on the loop as it exits.
        self._exited: list[asyncio.Future] = []
        self._tasks: list[asyncio.Task] = []
        #: What jobs and watches are served against (``None`` before
        #: :meth:`start`); read once per job, so a job sees one generation.
        self.serving: Generation | None = None
        self._adopted_at = 0.0  # monotonic time this runner began serving it
        self.snapshot_refreshes = 0
        #: Lookups waiting for jobs to finish (``wait_s``).
        self.holds = Holds()
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
        # Generation.context counts hits and misses; a refresh, evictions.
        self._m_ctx_cache = m.counter(*CONTEXT_CACHE_EVENTS_TOTAL)
        # Warm-pool families are incremented by repro.search.pool through
        # the ambient registry; declaring them here (same name/help)
        # makes them visible at /v1/metrics from the first scrape.
        m.counter(*WORKER_CACHE_EVENTS_TOTAL)
        m.counter(*POOL_SPAWNS_TOTAL)
        m.counter(*SPEC_RESENDS_TOTAL)
        m.gauge(
            "cbes_queue_depth", "Jobs queued, not yet started.", callback=lambda: self.queue_depth
        )
        m.gauge(
            "cbes_queue_limit",
            "Bound of the job queue (429 beyond it).",
            callback=lambda: self.queue_limit,
        )
        m.gauge(
            "cbes_snapshot_age_seconds",
            "Seconds since the serving snapshot was adopted.",
            callback=lambda: (
                time.monotonic() - self._adopted_at if self.serving is not None else 0.0
            ),
        )

    @property
    def snapshot(self) -> SystemSnapshot | None:
        """The serving snapshot (``None`` before :meth:`start`)."""
        return self.serving.snapshot if self.serving is not None else None

    # -- queue ----------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs in the ``queued`` state: accepted and not yet started."""
        return self._queued

    @property
    def free_slots(self) -> int:
        """How many more jobs fit under ``queue_limit`` (may be negative)."""
        return self.queue_limit - self.queue_depth

    def enqueue(self, *jobs: Job) -> None:
        """Queue accepted jobs together; the caller has checked :attr:`free_slots`.

        A worker woken by them finds all of them waiting, so the quotes
        of one batch are one run.
        """
        with self._cond:
            self._queued += len(jobs)
            self._waiting.extend(jobs)
            self._cond.notify(len(jobs))

    def call(self, fn: Callable, *args) -> asyncio.Future:
        """Run CPU-bound ``fn(*args)`` on a job thread, as a run of its own.

        Awaiting the returned future gives its result (or raises its
        exception).  A call still waiting when the runner stops is
        cancelled; it does not count against ``queue_limit``.
        """
        assert self._loop is not None, "job runner is not started"
        future = self._loop.create_future()
        with self._cond:
            self._waiting.append(_Call(fn, args, future))
            self._cond.notify()
        return future

    def _take_run(self) -> list:
        """The head entry and, behind a quote, the quotes queued after it.

        A ``schedule`` job runs alone: a search costs 10^2-10^3 quotes,
        and a quote queued behind it in one run would wait for all of it
        while another worker idles.  So does a :meth:`call`.
        """
        run = [self._waiting.popleft()]
        if run[0].kind in QUOTES:
            while self._waiting and self._waiting[0].kind in QUOTES:
                run.append(self._waiting.popleft())
        return run

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Take the first snapshot and start the worker threads + the refresh task."""
        self._loop = asyncio.get_running_loop()
        self.serving = self._service.adopt(self._service.snapshot().freeze())
        self._adopted_at = time.monotonic()
        self._exited = [self._loop.create_future() for _ in range(self.workers)]
        for i, exited in enumerate(self._exited):
            threading.Thread(
                target=self._work, args=(exited,), name=f"cbes-job-{i}", daemon=True
            ).start()
        if self._refresh_interval > 0:
            self._tasks.append(
                self._loop.create_task(self._refresh_loop(), name="cbes-snapshot-refresh")
            )

    async def stop(self, *, drain: bool) -> None:
        """Stop the workers; with *drain*, finish every queued job first.

        Without *drain*, or at the drain timeout, a thread finishes the
        job it is in and fails the rest of its run; jobs no worker took
        fail here.  Afterwards no job is ``queued`` or ``running``.
        """
        assert self._loop is not None, "job runner is not started"
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        if drain:
            _, busy = await asyncio.wait(self._exited, timeout=DRAIN_TIMEOUT_S)
            if busy:
                log.warning(
                    "drain timeout after %.1fs; abandoning %d queued job(s)",
                    DRAIN_TIMEOUT_S,
                    self.queue_depth,
                )
        with self._cond:
            self._stopping = True
            unstarted = list(self._waiting)
            self._waiting.clear()
        jobs = []
        for entry in unstarted:
            if isinstance(entry, _Call):
                entry.future.cancel()
            else:
                jobs.append(entry)
        if jobs:
            with self._cond:
                self._queued -= len(jobs)
            self._settle([(job, None, NOT_STARTED) for job in jobs])
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, *self._exited, return_exceptions=True)

    # -- snapshot refresh -----------------------------------------------
    def poll_snapshot(self):
        """Poll the monitor (if any) and return a frozen snapshot."""
        if self._service.is_monitoring:
            self._service.monitor.poll()
        return self._service.snapshot().freeze()

    def adopt_snapshot(self, snapshot) -> bool:
        """Serve the service's generation of *snapshot* if its digest or latency
        model differ from the served one's; the old one's contexts count ``evicted``."""
        old, new = self.serving, self._service.adopt(snapshot)
        if (new.fingerprint, new.latency_model) == (old.fingerprint, old.latency_model):
            return False
        self.serving, self._adopted_at = new, time.monotonic()
        stale = len(old.contexts)
        if stale:
            self._m_ctx_cache.inc(stale, event="evicted")
        self.snapshot_refreshes += 1
        self._m_refreshes.inc()
        log.info(
            "snapshot refreshed (fingerprint %s, %d stale context(s) dropped)",
            self.serving.fingerprint[:12],
            stale,
        )
        return True

    async def _refresh_loop(self) -> None:
        assert self._loop is not None
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
    def _work(self, exited: asyncio.Future) -> None:
        """A worker thread, recording into the daemon's registry: take a run,
        run it, until closing empties the queue."""
        try:
            with telemetry.use_registry(self._metrics):
                while True:
                    with self._cond:
                        while not self._waiting:
                            if self._closing:
                                return
                            self._cond.wait()
                        run = self._take_run()
                    if isinstance(run[0], _Call):
                        run[0].run()
                    else:
                        self._run(run)
        finally:
            try:
                exited.get_loop().call_soon_threadsafe(_settle, exited, None, None)
            except RuntimeError:  # the loop is closed: nobody waits for us
                pass

    def _run(self, run: list[Job]) -> None:
        """Run *run* on this worker thread, job after job, then settle it."""
        outcomes = []
        for job in run:
            if self._stopping:
                with self._cond:
                    self._queued -= 1
                outcomes.append((job, None, NOT_STARTED))
            else:
                outcomes.append(self._run_job(job))
        self._settle(outcomes)

    def _run_job(self, job: Job) -> tuple[Job, bytes | None, str | None]:
        """Start *job*, run it and encode its result: ``(job, result bytes, error)``."""
        with self._tracer.trace("cbes.job", self._m_job_seconds, job_id=job.id, kind=job.kind,
                                app=job.payload["app"], request_id=job.request_id) as span:
            self._store.mark_running(job.id)
            with self._cond:
                self._queued -= 1
            self._m_jobs.inc(kind=job.kind, state="running")
            queued_for = (job.started_at or 0.0) - job.created_at
            log.info("job %s (%s, req=%s) started after %.1f ms queued",
                     job.id, job.kind, job.request_id, queued_for * 1e3)
            result_json = error = None
            try:
                result = self.execute(job)
            except Exception as exc:  # noqa: BLE001 - job errors become job state
                error = f"{type(exc).__name__}: {exc}"
            else:
                try:
                    result_json = result if isinstance(result, bytes) else encode_json(result)
                except (TypeError, ValueError) as exc:
                    error = f"result is not JSON-serialisable: {exc}"
            if error is not None:
                span.status = "error"
        return job, result_json, error

    def _settle(self, outcomes: list[tuple[Job, bytes | None, str | None]]) -> None:
        """End the jobs of a run together: one journal write, one publish
        under the store lock, one wake-up of the held lookups."""
        self._store.settle([(job.id, result_json, error) for job, result_json, error in outcomes])
        for job, _, error in outcomes:
            if error is None:
                log.info("job %s done in %.1f ms", job.id,
                         (job.finished_at - job.started_at) * 1e3)
            else:
                log.warning("job %s failed: %s", job.id, error)
            self._m_jobs.inc(kind=job.kind, state="done" if error is None else "failed")
        # Last: a lookup released here finds the jobs' metrics counted too.
        self.holds.finished()

    def execute(self, job: Job) -> dict | bytes:
        """Run one job on a worker thread; returns its result document.

        Every kind is priced by the kernel the search uses.  A quote
        builds no evaluator and no document: the cached context's
        ``(R, C)`` rows of each mapping are written straight to the
        result bytes (:func:`~repro.server.serialize.prediction_json`).
        A schedule job returns its document, encoded by the caller.
        """
        payload = job.payload
        app, options = payload["app"], options_from_dict(payload.get("options"))
        serving = self.serving
        if job.kind == "schedule":
            evaluator = serving.evaluator(app, options)
            scheduler = make_scheduler(
                payload["scheduler"],
                parallel=payload.get("workers", 1),
                time_budget=payload.get("time_budget"),
            )
            result = scheduler.schedule(evaluator, payload["pool"], seed=payload["seed"])
            telemetry.annotate(evaluations=evaluator.evaluations)
            return {**schedule_result_to_dict(result), "snapshot_fingerprint": serving.fingerprint}
        context = serving.context(app, options)
        candidates = [payload["nodes"]] if job.kind == "predict" else payload["mappings"]
        quotes = [prediction_json(nodes, *context.rows(nodes)) for nodes in candidates]
        if job.kind == "predict":
            body = quotes[0][1]
        else:  # compare: fastest first, ties in request order
            quotes.sort(key=itemgetter(0))
            body = b'{"ranked":[' + b",".join(quote for _, quote in quotes) + b"]}"
        # Schedule jobs are counted by Scheduler.schedule itself;
        # counting here too would double the evaluations.
        self._metrics.counter(
            "cbes_evaluations_total", "Mapping evaluations consumed by scheduling."
        ).inc(len(candidates))
        telemetry.annotate(evaluations=len(candidates))
        return body[:-1] + b',"snapshot_fingerprint":' + encode_json(serving.fingerprint) + b"}"

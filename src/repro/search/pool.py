"""The search runtime's one entry, and the warm worker pool behind it.

:func:`run_tasks` is the only door: it alone decides whether a batch of
search tasks (SA restarts, GA island epochs) runs inline on one
:class:`~repro.search.worker.TaskRunner` or on the module-level
:class:`WorkerPool`, the only place the package creates worker
processes.  :class:`PoolTask` / :class:`PoolReply` are the one envelope
pair that crosses the process boundary.  The pool:

* the executor is spawned lazily on first use, reused by every
  subsequent portfolio/island run (including the daemon's job worker
  threads), grown in place when a caller asks for more parallelism, and
  reaped after :data:`DEFAULT_IDLE_TIMEOUT_S` of inactivity;
* each worker process holds a small LRU cache of
  :class:`~repro.search.worker.TaskRunner`s keyed by
  :meth:`SearchSpec.fingerprint` — the spec ships once per fingerprint
  and subsequent tasks reference it by key.  A worker that has not seen
  the key yet answers with a ``missing_spec`` reply and the master
  resends that task with the spec attached (an executor cannot target a
  specific worker, so the "ship once" protocol needs a retry path);
* cache hit/miss/eviction counts ride back on every reply and are folded
  into the ambient :mod:`repro.telemetry` registry by the master;
* a worker that dies (OOM kill, ``SIGKILL``) breaks its executor;
  :meth:`WorkerPool.run` discards the broken executor and re-runs the
  batch once on a fresh one, so the pool heals under steady traffic.

Determinism is untouched: a task's outcome is a pure function of the
task and the spec (runners carry no cross-task state that reaches the
result — evaluation counts are reported as per-task deltas), so which
worker, which cache entry, how warm the pool is, or whether a batch had
to be re-run cannot change the reduced mapping.  A batch that runs
inline never touches the pool.

Deployment settings: the start method (``mp_context``),
``REPRO_WORKER_CACHE`` and ``REPRO_POOL_IDLE_S``.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro import telemetry
from repro.core.evaluation import MappingEvaluator
from repro.search.spec import SearchSpec
from repro.search.worker import GaEpochTask, SaTask, TaskRunner
from repro.telemetry import MetricsDelta

__all__ = [
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_IDLE_TIMEOUT_S",
    "PoolTask",
    "PoolReply",
    "WorkerPool",
    "default_start_method",
    "get_pool",
    "run_tasks",
    "shutdown_pool",
]

#: TaskRunners kept per worker process (override: REPRO_WORKER_CACHE).
DEFAULT_CACHE_CAPACITY = 8
#: Idle seconds before the warm executor is reaped (REPRO_POOL_IDLE_S).
DEFAULT_IDLE_TIMEOUT_S = 300.0

#: Metric family declarations (name, help, labelnames) — shared with the
#: daemon, which pre-declares them for first-scrape visibility.
WORKER_CACHE_EVENTS_TOTAL = (
    "cbes_worker_cache_events_total",
    "Fingerprint-keyed TaskRunner cache events inside pool workers.",
    ("event",),
)
POOL_SPAWNS_TOTAL = (
    "cbes_pool_spawns_total",
    "Warm worker pool executors created (cold starts).",
)
SPEC_RESENDS_TOTAL = (
    "cbes_pool_spec_resends_total",
    "Tasks resent with the full spec after a worker-side cache miss.",
)


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits the code for free),
    ``spawn`` elsewhere."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _cache_capacity() -> int:
    try:
        value = int(os.environ.get("REPRO_WORKER_CACHE", DEFAULT_CACHE_CAPACITY))
    except ValueError:
        return DEFAULT_CACHE_CAPACITY
    return max(1, value)


def _idle_timeout() -> float | None:
    raw = os.environ.get("REPRO_POOL_IDLE_S", "").strip()
    if not raw:
        return DEFAULT_IDLE_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_IDLE_TIMEOUT_S
    return value if value > 0 else None


@dataclass(frozen=True)
class PoolTask:
    """Envelope shipping one search task to a warm worker.

    ``spec`` is attached only the first time the master ships a given
    ``key`` (and on miss-retries); every other envelope carries the key
    alone, so a cached worker pays one short string instead of a full
    spec pickle per task.
    """

    key: str
    task: SaTask | GaEpochTask
    spec: SearchSpec | None = None
    telemetry_enabled: bool = False


@dataclass(frozen=True)
class PoolReply:
    """One task's outcome, the telemetry it recorded (``None`` when
    disabled) and the worker-side cache events it caused."""

    outcome: object = None
    metrics: MetricsDelta | None = None
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: The worker had no runner for ``key`` and no spec to build one;
    #: the master must resend the task with the spec attached.
    missing_spec: bool = False


# -- worker-process side -------------------------------------------------
#: This process's fingerprint -> TaskRunner LRU (most recent last).
_CACHE: "OrderedDict[str, TaskRunner]" = OrderedDict()


def _initialize_pool_worker() -> None:
    """Executor initializer: start every worker with an empty cache."""
    global _CACHE
    _CACHE = OrderedDict()


def _run_pool_task(pt: PoolTask) -> PoolReply:
    """Execute one envelope against this worker's cached runners."""
    hits = misses = evictions = 0
    runner = _CACHE.get(pt.key)
    if runner is not None:
        _CACHE.move_to_end(pt.key)
        hits = 1
    else:
        if pt.spec is None:
            return PoolReply(missing_spec=True)
        runner = TaskRunner(pt.spec)
        misses = 1
        _CACHE[pt.key] = runner
        while len(_CACHE) > _cache_capacity():
            _CACHE.popitem(last=False)
            evictions += 1
    outcome, metrics = runner.run(pt.task, telemetry_enabled=pt.telemetry_enabled)
    return PoolReply(
        outcome=outcome, metrics=metrics, hits=hits, misses=misses, evictions=evictions
    )


# -- master side ---------------------------------------------------------
class WorkerPool:
    """A lazily spawned, reusable ProcessPoolExecutor with warm workers.

    Thread-safe: the daemon's job worker threads share one instance.  The
    executor grows (by replacement) when a run asks for more workers than
    it currently has and shrinks only through the idle reaper or an
    explicit :meth:`shutdown`.
    """

    def __init__(
        self,
        *,
        mp_context: str | None = None,
        idle_timeout_s: float | None = None,
    ) -> None:
        self._mp_context = mp_context or default_start_method()
        self._idle_timeout = idle_timeout_s if idle_timeout_s is not None else _idle_timeout()
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._size = 0
        #: Spec fingerprints already shipped to the *current* executor.
        self._shipped: set[str] = set()
        self._reaper: threading.Timer | None = None
        self._active = 0
        self._spawns = 0
        self._last_used = time.monotonic()

    @property
    def mp_context(self) -> str:
        return self._mp_context

    @property
    def workers(self) -> int:
        """Current executor size (0 when cold)."""
        return self._size

    @property
    def spawns(self) -> int:
        """How many executors this pool has created (cold starts)."""
        return self._spawns

    def run(self, spec: SearchSpec, tasks: list, *, workers: int) -> list[tuple]:
        """Execute *tasks* for *spec* on warm workers (:func:`run_tasks`
        is the caller); ``(outcome, telemetry delta)`` pairs in order.

        At most *workers* tasks are in flight at once even when the
        resident executor is larger (a previous caller may have grown
        it), so a run's parallelism matches what its caller asked for.
        """
        spec.ensure_picklable()
        with self._lock:
            self._active += 1
        try:
            try:
                return self._run_batch(spec, tasks, workers)
            except BrokenProcessPool:
                # A worker died.  Outcomes are pure functions of task and
                # spec, so re-running the whole batch on a fresh executor
                # cannot change a result.
                return self._run_batch(spec, tasks, workers)
        finally:
            self._touch()

    def _run_batch(self, spec: SearchSpec, tasks: list, workers: int) -> list[tuple]:
        key = spec.fingerprint()
        executor = self._executor_for(workers)
        with self._lock:
            first_time = key not in self._shipped
            self._shipped.add(key)
        enabled = telemetry.enabled()
        envelopes = [
            PoolTask(
                key=key,
                task=task,
                spec=spec if first_time else None,
                telemetry_enabled=enabled,
            )
            for task in tasks
        ]
        try:
            replies = self._submit_windowed(executor, envelopes, window=workers)
            missed = [i for i, reply in enumerate(replies) if reply.missing_spec]
            if missed:
                # A worker the key never reached (new process, evicted
                # entry, or a raced first ship) asked for the spec.
                redo = [replace(envelopes[i], spec=spec) for i in missed]
                for i, reply in zip(missed, self._submit_windowed(executor, redo, window=workers)):
                    replies[i] = reply
                telemetry.get_registry().counter(*SPEC_RESENDS_TOTAL).inc(len(missed))
        except BrokenProcessPool:
            self._discard(executor)
            raise
        self._record_cache_events(replies)
        return [(reply.outcome, reply.metrics) for reply in replies]

    def shutdown(self, *, wait: bool = True) -> None:
        """Tear the executor down now; the next run starts cold."""
        with self._lock:
            executor = self._detach()
            if self._reaper is not None:
                self._reaper.cancel()
                self._reaper = None
        if executor is not None:
            executor.shutdown(wait=wait)

    # -- internals -------------------------------------------------------
    def _detach(self) -> ProcessPoolExecutor | None:
        """Forget the resident executor and everything that described it
        (lock held); the caller shuts the returned executor down."""
        executor, self._executor = self._executor, None
        self._size = 0
        self._shipped.clear()
        return executor

    def _discard(self, broken: ProcessPoolExecutor) -> None:
        """Drop *broken* so the next batch spawns a fresh executor.

        Leaves the pool alone when a concurrent run already replaced it
        — that run's fresh executor must survive.
        """
        with self._lock:
            if self._executor is broken:
                self._detach()
        broken.shutdown(wait=False)

    def _executor_for(self, workers: int) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is not None and self._size < workers and self._active == 1:
                # Grow by replacement: the old executor finishes any
                # in-flight tasks on its own processes, the new one
                # starts cold (caches re-fill on first use).  Only safe
                # when this run is the sole active user — a concurrent
                # run still submitting to the old executor would hit its
                # closed state, so it keeps the smaller pool instead
                # (the submit window caps its parallelism anyway).
                self._detach().shutdown(wait=False)
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=mp.get_context(self._mp_context),
                    initializer=_initialize_pool_worker,
                )
                self._size = workers
                self._spawns += 1
                telemetry.get_registry().counter(*POOL_SPAWNS_TOTAL).inc()
            return self._executor

    @staticmethod
    def _submit_windowed(
        executor: ProcessPoolExecutor, envelopes: list[PoolTask], *, window: int
    ) -> list[PoolReply]:
        """Run envelopes with a bounded in-flight window; replies in order."""
        replies: list[PoolReply | None] = [None] * len(envelopes)
        pending: dict = {}
        cursor = 0
        while cursor < len(envelopes) or pending:
            while cursor < len(envelopes) and len(pending) < window:
                pending[executor.submit(_run_pool_task, envelopes[cursor])] = cursor
                cursor += 1
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                replies[pending.pop(future)] = future.result()
        return replies  # type: ignore[return-value]

    @staticmethod
    def _record_cache_events(replies: list[PoolReply]) -> None:
        registry = telemetry.get_registry()
        counter = registry.counter(*WORKER_CACHE_EVENTS_TOTAL)
        hits = sum(reply.hits for reply in replies)
        misses = sum(reply.misses for reply in replies)
        evictions = sum(reply.evictions for reply in replies)
        if hits:
            counter.inc(hits, event="hit")
        if misses:
            counter.inc(misses, event="miss")
        if evictions:
            counter.inc(evictions, event="evicted")

    def _touch(self) -> None:
        """Mark activity and (re)arm the idle reaper."""
        with self._lock:
            self._active -= 1
            self._last_used = time.monotonic()
            if self._reaper is not None:
                self._reaper.cancel()
                self._reaper = None
            if self._idle_timeout is not None and self._executor is not None:
                self._reaper = threading.Timer(self._idle_timeout, self._reap)
                self._reaper.daemon = True
                self._reaper.start()

    def _reap(self) -> None:
        with self._lock:
            if self._executor is None or self._active > 0:
                return
            if time.monotonic() - self._last_used < self._idle_timeout:
                return
            executor = self._detach()
            self._reaper = None
        executor.shutdown(wait=False)


# -- module-level singleton and the one entry ----------------------------
_POOL: WorkerPool | None = None
_POOL_LOCK = threading.Lock()


def get_pool(mp_context: str | None = None) -> WorkerPool:
    """The process-wide warm pool (created on first call).

    A caller that names a different ``mp_context`` than the resident
    pool's replaces it — start methods cannot be mixed in one executor.
    """
    global _POOL
    wanted = mp_context or default_start_method()
    stale: WorkerPool | None = None
    with _POOL_LOCK:
        if _POOL is not None and _POOL.mp_context != wanted:
            stale, _POOL = _POOL, None
        if _POOL is None:
            _POOL = WorkerPool(mp_context=wanted)
        pool = _POOL
    if stale is not None:
        stale.shutdown(wait=False)
    return pool


def shutdown_pool(*, wait: bool = True) -> None:
    """Tear down the process-wide pool (next schedule call starts cold)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=wait)


def run_tasks(
    spec: SearchSpec,
    tasks: list,
    *,
    workers: int,
    evaluator: MappingEvaluator | None = None,
    mp_context: str | None = None,
) -> list:
    """Run search *tasks* against *spec*; their outcomes in task order.

    The one place inline-or-pool is decided: a batch that cannot use
    more than one worker runs here, on one
    :class:`~repro.search.worker.TaskRunner` — over the cached context
    of *evaluator* (the one *spec* was taken from) when given, else over
    one it builds from the spec; anything wider runs on the warm pool,
    whose workers build their own.  Either way each task's telemetry is
    folded into the ambient registry in task order before returning, so
    aggregates do not depend on worker count or finish order.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        context = evaluator.fast_context(spec.options) if evaluator is not None else None
        runner = TaskRunner(spec, context=context)
        pairs = [runner.run(task) for task in tasks]
    else:
        pairs = get_pool(mp_context).run(spec, tasks, workers=workers)
    registry = telemetry.get_registry()
    for _, metrics in pairs:
        if metrics is not None:
            registry.apply_delta(metrics)
    return [outcome for outcome, _ in pairs]


atexit.register(shutdown_pool)

"""Job lifecycle and storage for the scheduling daemon.

A *job* is one asynchronous CBES request (schedule / predict / compare)
submitted over the network: it is accepted into a bounded queue, picked
up by a worker, and its result is kept for the client to poll.  The
:class:`JobStore` is the daemon's only stateful record of requests; it
enforces the status state machine and evicts finished jobs after a TTL
so a long-running daemon's memory stays bounded.

The store is thread-safe: the event loop creates and lists jobs while
worker threads drive the status transitions.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

from repro._util import encode_json
from repro.server.config import DAEMON_FIELDS

__all__ = ["DuplicateJobError", "JobState", "JobStateError", "Job", "JobStore", "spliced"]

log = logging.getLogger("repro.server.jobs")


class JobState(str, Enum):
    """Where a job is in its lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


#: Legal state transitions (queued jobs may fail directly, e.g. when a
#: drain deadline expires before a worker ever picked them up).
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.FAILED}),
    JobState.RUNNING: frozenset({JobState.DONE, JobState.FAILED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
}


class JobStateError(RuntimeError):
    """An illegal job status transition was attempted."""


class DuplicateJobError(ValueError):
    """A caller-supplied job id collides with a live job."""


def spliced(head: dict, result_json: bytes | None) -> tuple[bytes, ...]:
    """The pieces of *head* as compact JSON with ``"result"`` appended.

    The stored bytes go in as they are.  ``b"".join`` the pieces for a
    message; the snapshot writes them one by one and builds no copy.
    """
    encoded = encode_json(head)
    if result_json is None:
        return (encoded,)
    return encoded[:-1], b',"result":', result_json, b"}"


@dataclass(slots=True)
class Job:
    """One asynchronous CBES request and its (eventual) outcome.

    Its fields change only through :class:`JobStore` transitions, which
    hold the store's lock.
    """

    id: str
    kind: str
    #: The normalized request; ``{}`` once the job has ended (nothing reads it then).
    payload: dict
    state: JobState = JobState.QUEUED
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: The result document as compact JSON (set on DONE): the bytes the
    #: journal, the snapshot and the job's HTTP answers all carry.
    result_json: bytes | None = None
    #: Human-readable failure reason (set on FAILED).
    error: str | None = None
    #: Request id of the submitting HTTP request (log correlation).
    request_id: str = ""

    @property
    def result(self) -> dict | None:
        """The result document, decoded from :attr:`result_json`."""
        raw = self.result_json
        return None if raw is None else json.loads(raw)

    @result.setter
    def result(self, result: dict | None) -> None:
        self.result_json = None if result is None else encode_json(result)

    def _head(self) -> dict:
        """The job document without its result, which callers read after
        this has read the state: never ``done`` without one (``JobStore._move``)."""
        doc: dict = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state.value,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "request_id": self.request_id,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def to_dict(self) -> dict:
        """The job document served by ``GET /v1/jobs/{id}``."""
        doc = self._head()
        result = self.result
        if result is not None:
            doc["result"] = result
        return doc

    def to_json(self) -> bytes:
        """:meth:`to_dict` as compact JSON, the stored result spliced in."""
        return b"".join(spliced(self._head(), self.result_json))


class JobStore:
    """Thread-safe registry of jobs with TTL eviction of finished ones.

    Parameters
    ----------
    ttl_s:
        How long finished (done/failed) jobs stay pollable.  Jobs still
        queued or running are never evicted.
    clock:
        Injectable monotonic time source (tests use a fake clock).
    on_evict:
        Called as ``on_evict(job, age_s)`` for every job dropped by
        :meth:`evict_expired` (the daemon counts them), where *age_s* is
        how long past its ``finished_at`` the job lived.
    """

    def __init__(
        self,
        *,
        ttl_s: float = DAEMON_FIELDS["job_ttl_s"].default,
        clock: Callable[[], float] = time.monotonic,
        on_evict: Callable[["Job", float], None] | None = None,
    ):
        # NaN or inf would compare false in evict_expired and keep every job.
        if not 0 < ttl_s <= sys.float_info.max:
            raise ValueError("ttl_s must be a finite number > 0")
        self._ttl = float(ttl_s)
        self._clock = clock
        self._on_evict = on_evict
        self._jobs: dict[str, Job] = {}
        #: How many of :attr:`_jobs` are in each state, kept up to date
        #: by every insert, transition and removal: the health endpoint
        #: reads it without walking the store.
        self._counts: dict[JobState, int] = dict.fromkeys(JobState, 0)
        #: Terminal jobs in ``finished_at`` order, oldest at the left, so
        #: :meth:`evict_expired` touches only the jobs it drops.
        self._expiry: deque[Job] = deque()
        self._lock = threading.Lock()
        #: Next sequence number for store-minted ids (``j000001``...).
        #: A plain int (not itertools.count) so a durable subclass can
        #: resume it past recovered ids and snapshot its current value.
        self._next_seq = 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # -- creation / lookup ----------------------------------------------
    def create(self, kind: str, payload: dict, *, request_id: str = "", job_id: str | None = None) -> Job:
        """Register a new queued job and return it.

        *job_id* lets a caller (the fleet router, which rendezvous-hashes
        ids to replicas *before* submitting) choose the id; it must not
        collide with a live job (:class:`DuplicateJobError`).  Without
        it the store mints the next ``jNNNNNN`` id.
        """
        return self.create_many([(kind, payload, job_id)], request_id=request_id)[0]

    def create_many(
        self, entries: Sequence[tuple[str, dict, str | None]], *, request_id: str = ""
    ) -> list[Job]:
        """Register one queued job per ``(kind, payload, job_id)`` entry, all or none.

        Every caller-chosen id is checked before anything is held: one
        that collides with a live job, or with another entry, raises
        :class:`DuplicateJobError` and leaves the store as it was.
        """
        chosen = [job_id for _, _, job_id in entries if job_id is not None]
        if not all(chosen):
            raise ValueError("job_id must be a non-empty string")
        with self._lock:
            taken: set[str] = set()
            for job_id in chosen:
                if job_id in self._jobs or job_id in taken:
                    raise DuplicateJobError(f"job id {job_id!r} already exists")
                taken.add(job_id)
            jobs = []
            for kind, payload, job_id in entries:
                if job_id is None:
                    # Skip over any caller-supplied id that happens to look
                    # like ours; ids are never reused while the job lives.
                    while (job_id := f"j{self._next_seq:06d}") in self._jobs or job_id in taken:
                        self._next_seq += 1
                    self._next_seq += 1
                job = Job(
                    id=job_id,
                    kind=kind,
                    payload=payload,
                    created_at=self._clock(),
                    request_id=request_id,
                )
                self._add(job)
                jobs.append(job)
            return jobs

    def _add(self, job: Job) -> None:
        """Hold *job* (caller holds the lock)."""
        self._jobs[job.id] = job
        self._counts[job.state] += 1

    def _remove(self, job: Job) -> None:
        """Stop holding *job* (caller holds the lock)."""
        del self._jobs[job.id]
        self._counts[job.state] -= 1

    def discard(self, job_id: str) -> None:
        """Forget a job entirely (submission was rejected after create)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                self._remove(job)

    def get(self, job_id: str) -> Job:
        """The job with *job_id*; raises ``KeyError`` if unknown/evicted."""
        with self._lock:
            return self._jobs[job_id]

    def list(
        self,
        *,
        state: JobState | str | None = None,
        limit: int | None = None,
        after: str | None = None,
        ids: Iterable[str] | None = None,
    ) -> list[Job]:
        """Live jobs, oldest first (ties broken by id), with paging.

        Parameters
        ----------
        ids:
            Look up just these jobs (dict lookups: the cost depends on
            how many are asked for, not on how many the store holds).
            Unknown or evicted ids are simply absent from the result and
            a repeated id yields its job once; the other parameters then
            apply to the jobs found.
        state:
            Keep only jobs in this state.
        after:
            Cursor: return jobs ordered strictly after the job with this
            id.  The cursor job's *position* is used, not its state, so
            a page boundary stays valid even if that job has since
            transitioned out of the filtered state.  Unknown (or
            evicted) ids raise ``KeyError``.
        limit:
            Return at most this many jobs (applied after filtering).
        """
        if state is not None:
            state = JobState(state)
        with self._lock:
            if ids is None:
                jobs = self._jobs.values()
            else:
                jobs = {i: self._jobs[i] for i in ids if i in self._jobs}.values()
            ordered = sorted(jobs, key=lambda j: (j.created_at, j.id))
            if after is not None:
                cursor = self._jobs.get(after)
                if cursor is None:
                    raise KeyError(f"unknown 'after' job id {after!r}")
                key = (cursor.created_at, cursor.id)
                ordered = [j for j in ordered if (j.created_at, j.id) > key]
            if state is not None:
                ordered = [j for j in ordered if j.state is state]
            if limit is not None:
                ordered = ordered[: max(0, limit)]
            return ordered

    def counts(self) -> dict[str, int]:
        """Number of live jobs per state (health endpoint); no scan."""
        with self._lock:
            return {state.value: count for state, count in self._counts.items()}

    # -- transitions ----------------------------------------------------
    def _legal(self, job_id: str, new: JobState) -> Job:
        """The job *job_id*, if it may move to *new* (lock held)."""
        job = self._jobs[job_id]
        if new not in _TRANSITIONS[job.state]:
            raise JobStateError(f"job {job_id}: illegal transition {job.state.value} -> {new.value}")
        return job

    def _move(self, job: Job, new: JobState) -> None:
        """Publish *job*'s state *new*, after everything it promises (lock held).

        A reader on another thread that takes no lock never sees
        ``done`` without its result.
        """
        self._counts[job.state] -= 1
        self._counts[new] += 1
        job.state = new

    def mark_running(self, job_id: str) -> Job:
        with self._lock:
            job = self._legal(job_id, JobState.RUNNING)
            job.started_at = self._clock()
            self._move(job, JobState.RUNNING)
        return job

    def settle(self, outcomes: Sequence[tuple[str, bytes | None, str | None]]) -> list[Job]:
        """End jobs in one hold of the store lock, each ``(job_id, result_json, error)``:
        ``failed`` with *error* when it is not ``None``, else ``done`` with
        the result bytes.  Every move is checked before any is made.

        A finished job's timestamp and place in the expiry queue are set
        under the one lock, so the queue stays in ``finished_at`` order
        whichever thread finishes a job.  Its request payload is dropped:
        nothing reads it once the job has ended.
        """
        with self._lock:
            jobs = [
                self._legal(job_id, JobState.DONE if error is None else JobState.FAILED)
                for job_id, _, error in outcomes
            ]
            for job, (_, result_json, error) in zip(jobs, outcomes):
                job.result_json, job.error, job.payload = result_json, error, {}
                job.finished_at = self._clock()
                self._expiry.append(job)
                self._move(job, JobState.DONE if error is None else JobState.FAILED)
        return jobs

    def mark_done(self, job_id: str, result: dict) -> Job:
        """Finish a job with *result*, encoded once and before the transition:
        one JSON cannot carry raises ``TypeError`` / ``ValueError``, job still running."""
        return self.settle([(job_id, encode_json(result), None)])[0]

    def mark_failed(self, job_id: str, error: str) -> Job:
        return self.settle([(job_id, None, error)])[0]

    # -- eviction -------------------------------------------------------
    def evict_expired(self) -> int:
        """Drop finished jobs older than the TTL; returns how many.

        Evictions are observable: each one is logged at DEBUG and
        reported through ``on_evict``, so a polling client that finds a
        404 can be correlated with the eviction that caused it.
        """
        now = self._clock()
        deadline = now - self._ttl
        expired: list[Job] = []
        with self._lock:
            # Oldest first, stopping at the first job still within its
            # TTL: the work is O(evicted), not a scan of the store.
            while self._expiry and self._expiry[0].finished_at <= deadline:
                job = self._expiry.popleft()
                # A job discarded after it finished is already gone.
                if self._jobs.get(job.id) is job:
                    self._remove(job)
                    expired.append(job)
        # Logging and callbacks run outside the lock: neither may block
        # create()/get() on the event loop.
        for job in expired:
            age = now - job.finished_at
            log.debug(
                "evicted job %s (%s, state=%s) finished %.1f s ago (ttl=%.1f s)",
                job.id,
                job.kind,
                job.state.value,
                age,
                self._ttl,
            )
            if self._on_evict is not None:
                self._on_evict(job, age)
        return len(expired)

"""The journaled job store: crash recovery for the scheduling daemon.

:class:`DurableJobStore` extends the in-memory
:class:`~repro.server.jobs.JobStore` state machine with a write-ahead
journal (see :mod:`repro.persist.journal`): a job's creation, its end
(``done`` / ``failed``) and its removal (``evict``) are each one JSON
record, so the journal never records an illegal transition.  Starting a
job is not journaled: recovery rewinds a ``running`` job to ``queued``
exactly as it keeps a ``queued`` one, so the record would never be read.

Records go down in units, one journal write each:

* **batch create** — :meth:`DurableJobStore.create_many` checks every
  id of an accepted batch, holds all its jobs, then appends their
  ``create`` records together; a refused batch touches neither memory
  nor the journal;
* **run settle** — :meth:`DurableJobStore.settle` appends the outcomes
  of a run of jobs together and only then publishes them, under one
  hold of the store lock; until the write is flushed every job of the
  run reads ``running``.

A finished job keeps no request payload: the snapshot writes ``{}`` for
it, and replay drops it at the ``done`` / ``failed`` record.

**Recovery** replays ``snapshot + journal`` on startup:

* jobs that were terminal (``done`` / ``failed``) come back with their
  results intact and a fresh TTL (wall-clock ages from the previous
  process's monotonic clock are meaningless here);
* jobs that were ``queued`` or ``running`` at crash time rewind to
  ``queued`` and are handed to the daemon through
  :meth:`DurableJobStore.take_recovered` for re-enqueueing — an
  accepted job is never silently lost;
* recovered jobs keep their ids and relative order (they sort before
  anything created after recovery).

**Compaction** folds the journal into an atomically-replaced snapshot
file (``jobs.snapshot.json``) whenever the journal outgrows both
``compact_bytes`` and the last snapshot written, and once right after
recovery (which also discards a replayed torn tail).  Replaying
``snapshot + journal-tail`` is equivalent to replaying the whole
pre-compaction journal — the property ``tests/test_persist.py`` pins
down.

Replay is *lenient*: records for unknown jobs or replays of
already-applied transitions are skipped, because compaction and
eviction callbacks may race an append (the journal then holds a record
the snapshot already reflects).
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from pathlib import Path

from repro._util import encode_json
from repro.persist.journal import Journal, JournalCorruptError, replay_journal
from repro.server.config import DAEMON_FIELDS
from repro.server.jobs import Job, JobState, JobStore, spliced

__all__ = [
    "JOURNAL_APPENDS_TOTAL",
    "JOURNAL_BYTES_TOTAL",
    "JOURNAL_COMPACTIONS_TOTAL",
    "JOBS_RECOVERED_TOTAL",
    "DurableJobStore",
    "recover_state",
]

log = logging.getLogger("repro.persist")

#: Metric families recorded by the durable store (name, help[, labels]);
#: the daemon declares them so they are visible from the first scrape.
JOURNAL_APPENDS_TOTAL = ("cbes_journal_appends_total", "Records appended to the job journal.")
JOURNAL_BYTES_TOTAL = ("cbes_journal_bytes_total", "Bytes appended to the job journal.")
JOURNAL_COMPACTIONS_TOTAL = (
    "cbes_journal_compactions_total",
    "Journal compactions into the snapshot file.",
)
JOBS_RECOVERED_TOTAL = (
    "cbes_jobs_recovered_total",
    "Jobs recovered from the journal at startup.",
    ("disposition",),
)

_SEQ_RE = re.compile(r"^j(\d{1,18})$")

_TERMINAL = {"done", "failed"}


def _seq_of(job_id: str) -> int | None:
    """The numeric sequence of a store-minted id (``None`` otherwise)."""
    match = _SEQ_RE.match(job_id)
    return int(match.group(1)) if match else None


def recover_state(
    snapshot_doc: dict | None, records: Iterable[dict]
) -> tuple[list[dict], int]:
    """Fold a snapshot document and journal records into job documents.

    Pure function (the unit of the compaction-equivalence tests).
    Returns ``(job docs in creation order, next id sequence)``.  Each
    doc has ``id`` / ``kind`` / ``payload`` / ``state`` / ``request_id``
    and, when terminal, ``result`` or ``error``.  Unknown ops (among
    them the ``running`` records older journals hold: a started job is
    recovered as a queued one), records for unknown jobs, and
    re-creations of known ids are skipped — see the module docstring
    for why replay is lenient.  A terminal job's payload is ``{}``.
    """
    jobs: dict[str, dict] = {}
    order: list[str] = []
    next_seq = 1
    if snapshot_doc is not None:
        next_seq = max(next_seq, int(snapshot_doc.get("next_seq", 1)))
        for doc in snapshot_doc.get("jobs", []):
            jobs[doc["id"]] = dict(doc)
            if doc.get("state") in _TERMINAL:
                jobs[doc["id"]]["payload"] = {}
            order.append(doc["id"])
            seq = _seq_of(doc["id"])
            if seq is not None:
                next_seq = max(next_seq, seq + 1)
    for record in records:
        op = record.get("op")
        job_id = record.get("id")
        if not isinstance(job_id, str):
            continue
        if op == "create":
            if job_id in jobs:
                continue
            jobs[job_id] = {
                "id": job_id,
                "kind": record.get("kind", ""),
                "payload": record.get("payload", {}),
                "state": "queued",
                "request_id": record.get("request_id", ""),
            }
            order.append(job_id)
            seq = _seq_of(job_id)
            if seq is not None:
                next_seq = max(next_seq, seq + 1)
        elif op == "done":
            doc = jobs.get(job_id)
            if doc is not None and doc["state"] not in _TERMINAL:
                doc.update(state="done", payload={}, result=record.get("result"))
        elif op == "failed":
            doc = jobs.get(job_id)
            if doc is not None and doc["state"] not in _TERMINAL:
                doc.update(state="failed", payload={}, error=record.get("error", ""))
        elif op == "evict":
            jobs.pop(job_id, None)
    docs = [jobs[job_id] for job_id in order if job_id in jobs]
    return docs, next_seq


class DurableJobStore(JobStore):
    """A :class:`JobStore` whose every transition survives a crash.

    Parameters
    ----------
    data_dir:
        Directory holding ``journal.wal`` and ``jobs.snapshot.json``
        (created if missing).  One store per directory — two daemons
        sharing a data dir would interleave journals incoherently.
    fsync:
        Journal durability policy (see :class:`Journal`).
    compact_bytes:
        Journal size beyond which the next append triggers compaction —
        or the size of the last snapshot written, when that is larger.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry` receiving the
        journal metric families declared at the top of this module.
    ttl_s, clock, on_evict:
        As in :class:`JobStore` (evictions are journaled *and* reported
        through *on_evict*).
    """

    JOURNAL_NAME = "journal.wal"
    SNAPSHOT_NAME = "jobs.snapshot.json"

    def __init__(
        self,
        data_dir: str | Path,
        *,
        ttl_s: float = DAEMON_FIELDS["job_ttl_s"].default,
        clock: Callable[[], float] = time.monotonic,
        on_evict: Callable[[Job, float], None] | None = None,
        fsync: str = DAEMON_FIELDS["fsync"].default,
        compact_bytes: int = 4 * 1024 * 1024,
        metrics=None,
    ) -> None:
        if compact_bytes < 1:
            raise ValueError("compact_bytes must be >= 1")
        self._user_on_evict = on_evict
        super().__init__(ttl_s=ttl_s, clock=clock, on_evict=self._journal_evict)
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._compact_bytes = int(compact_bytes)
        #: Serializes {mutate + append} pairs and compaction, so the
        #: journal order matches the order mutations were applied and a
        #: compaction never interleaves half a transition.
        self._mutex = threading.RLock()
        self._compactions = 0
        #: Size of the last snapshot this instance wrote.
        self._snapshot_bytes = 0
        self._recovered_pending: list[Job] = []
        self.recovered_terminal = 0
        if metrics is not None:
            self._m_appends = metrics.counter(*JOURNAL_APPENDS_TOTAL)
            self._m_bytes = metrics.counter(*JOURNAL_BYTES_TOTAL)
            self._m_compactions = metrics.counter(*JOURNAL_COMPACTIONS_TOTAL)
            self._m_recovered = metrics.counter(*JOBS_RECOVERED_TOTAL)
        else:
            self._m_appends = self._m_bytes = self._m_compactions = self._m_recovered = None
        snapshot_doc = self._read_snapshot()  # first: a refused boot leaves no open file
        self._journal = Journal(self.data_dir / self.JOURNAL_NAME, fsync=fsync, clock=clock)
        self._recover(snapshot_doc)

    # -- introspection --------------------------------------------------
    @property
    def journal(self) -> Journal:
        return self._journal

    @property
    def snapshot_path(self) -> Path:
        return self.data_dir / self.SNAPSHOT_NAME

    @property
    def compactions(self) -> int:
        """Compactions performed by this instance (including recovery's)."""
        return self._compactions

    def take_recovered(self) -> list[Job]:
        """Jobs that must be re-enqueued (queued/running at crash time).

        Returns them once, in original submission order, already rewound
        to ``queued``; subsequent calls return an empty list.
        """
        with self._mutex:
            pending, self._recovered_pending = self._recovered_pending, []
            return pending

    # -- recovery -------------------------------------------------------
    def _read_snapshot(self) -> dict | None:
        """The snapshot document, or ``None`` without a file.

        The file is only ever replaced whole, so one :meth:`compact` did
        not write is corruption: refused, as a corrupt journal is.
        """
        try:
            doc = json.loads(self.snapshot_path.read_bytes())
        except FileNotFoundError:
            return None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise JournalCorruptError(f"{self.snapshot_path}: not valid JSON: {exc}") from None
        jobs = doc.get("jobs") if isinstance(doc, dict) else None
        if not (
            isinstance(jobs, list)
            and isinstance(doc.get("next_seq", 1), int)
            and all(
                isinstance(job, dict)
                and isinstance(job.get("payload"), dict)
                and all(isinstance(job.get(key), str) for key in ("id", "kind", "state"))
                for job in jobs
            )
        ):
            raise JournalCorruptError(f"{self.snapshot_path}: not a job snapshot document")
        return doc

    def _recover(self, snapshot_doc: dict | None) -> None:
        records = list(replay_journal(self._journal.path))
        docs, next_seq = recover_state(snapshot_doc, records)
        now = self._clock()
        with self._lock:
            self._next_seq = max(self._next_seq, next_seq)
            for i, doc in enumerate(docs):
                job = Job(
                    id=doc["id"],
                    kind=doc["kind"],
                    payload=doc["payload"],
                    # Monotonic stamps do not survive the process; fresh
                    # ones preserving submission order keep listings and
                    # TTL eviction coherent with post-recovery jobs.
                    created_at=now - (len(docs) - i) * 1e-6,
                    request_id=doc.get("request_id", ""),
                )
                if doc["state"] == "done":
                    job.state = JobState.DONE
                    job.result = doc.get("result")
                elif doc["state"] == "failed":
                    job.state = JobState.FAILED
                    job.error = doc.get("error", "")
                else:  # queued or running: rewind and hand back for re-enqueue
                    job.state = JobState.QUEUED
                    self._recovered_pending.append(job)
                if job.state.is_terminal:
                    # The fresh TTL starts now: one TTL after restart
                    # the expiry queue drops it like any finished job.
                    job.finished_at = now
                    self._expiry.append(job)
                    self.recovered_terminal += 1
                self._add(job)
        if self._m_recovered is not None and docs:
            requeued = len(self._recovered_pending)
            if requeued:
                self._m_recovered.inc(requeued, disposition="requeued")
            if self.recovered_terminal:
                self._m_recovered.inc(self.recovered_terminal, disposition="retained")
        if docs or records or snapshot_doc is not None:
            log.info(
                "recovered %d job(s) from %s (%d re-enqueued, %d finished); compacting",
                len(docs),
                self.data_dir,
                len(self._recovered_pending),
                self.recovered_terminal,
            )
            # The recovered state becomes the new snapshot; the journal
            # restarts empty (dropping any replayed torn tail for good).
            self.compact()

    # -- journaling -----------------------------------------------------
    def _append(self, payloads: list[bytes], publish=None):
        """Journal *payloads* in one write; *publish*'s result, called before a compaction."""
        written = self._journal.append_payload(*payloads)
        if self._m_appends is not None:
            self._m_appends.inc(len(payloads))
            self._m_bytes.inc(written)
        published = publish() if publish is not None else None
        # A snapshot costs its own size to write, so the journal must
        # outgrow the last one before the next: compaction work stays
        # linear in bytes appended however large the store gets.
        if self._journal.size_bytes > max(self._compact_bytes, self._snapshot_bytes):
            self.compact()
        return published

    def create_many(
        self, entries: Sequence[tuple[str, dict, str | None]], *, request_id: str = ""
    ) -> list[Job]:
        """Hold the jobs, then journal their ``create`` records in one write;
        a refused batch writes nothing."""
        with self._mutex:
            jobs = super().create_many(entries, request_id=request_id)
            self._append([
                encode_json({"op": "create", "id": job.id, "kind": job.kind,
                             "payload": job.payload, "request_id": request_id})
                for job in jobs
            ])
            return jobs

    def discard(self, job_id: str) -> None:
        with self._mutex:
            existed = job_id in self._jobs
            super().discard(job_id)
            if existed:
                self._append([encode_json({"op": "evict", "id": job_id})])

    def settle(self, outcomes: Sequence[tuple[str, bytes | None, str | None]]) -> list[Job]:
        """Journal the outcomes in one write, then publish them: a reader
        never sees an outcome that a crash could take back, and every job
        of a run reads ``running`` until the write is flushed (fsynced
        under ``always``).  Only the journal mutex is held across the
        write, so lookups never wait on an fsync."""
        payloads = [
            b"".join(spliced({"op": "done", "id": job_id}, result_json))
            if error is None
            else encode_json({"op": "failed", "id": job_id, "error": error})
            for job_id, result_json, error in outcomes
        ]
        with self._mutex:
            with self._lock:
                for job_id, _, error in outcomes:
                    self._legal(job_id, JobState.DONE if error is None else JobState.FAILED)
            return self._append(payloads, partial(super().settle, outcomes))

    def _journal_evict(self, job: Job, age_s: float) -> None:
        # Called by JobStore.evict_expired outside its lock, after the
        # job is gone from memory; the journal must agree.
        with self._mutex:
            self._append([encode_json({"op": "evict", "id": job.id})])
        if self._user_on_evict is not None:
            self._user_on_evict(job, age_s)

    # -- compaction -----------------------------------------------------
    def compact(self) -> None:
        """Fold journal + memory into the snapshot file; reset the journal.

        The snapshot replaces atomically (write temp, fsync, rename), so
        a crash mid-compaction leaves either the old snapshot + full
        journal or the new snapshot + empty journal — both recoverable.
        Only each job's small head is encoded here; its result goes to
        the file as the bytes ``mark_done`` stored.
        """
        with self._mutex:
            with self._lock:
                ordered = sorted(self._jobs.values(), key=lambda j: (j.created_at, j.id))
                next_seq = self._next_seq
            tmp = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write(b'{"version":1,"next_seq":%d,"jobs":[' % next_seq)
                for i, job in enumerate(ordered):
                    head = {
                        "id": job.id,
                        "kind": job.kind,
                        "payload": job.payload,
                        "state": job.state.value,
                        "request_id": job.request_id,
                    }
                    result_json = None
                    if job.state is JobState.DONE:
                        result_json = job.result_json or b"null"
                    elif job.state is JobState.FAILED:
                        head["error"] = job.error or ""
                    if i:
                        fh.write(b",")
                    fh.writelines(spliced(head, result_json))
                fh.write(b"]}")
                fh.flush()
                self._snapshot_bytes = os.fstat(fh.fileno()).st_size
                os.fsync(fh.fileno())
            os.replace(tmp, self.snapshot_path)
            self._fsync_dir()
            self._journal.reset()
            self._compactions += 1
            if self._m_compactions is not None:
                self._m_compactions.inc()
            log.debug(
                "compacted %d job(s) into %s (compaction #%d)",
                len(ordered),
                self.snapshot_path.name,
                self._compactions,
            )

    def _fsync_dir(self) -> None:
        """Make the snapshot rename durable (best effort off Linux)."""
        try:
            fd = os.open(self.data_dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        """Flush and close the journal (the daemon calls this on stop)."""
        self._journal.close()

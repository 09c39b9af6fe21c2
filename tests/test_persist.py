"""Unit tests for the write-ahead journal and the durable job store.

The properties pinned here are the ones crash recovery rests on: torn
tails are tolerated (truncated, replay stops at the last complete
record), checksum mismatches are *refused*, and replaying
``snapshot + journal-tail`` after a compaction reconstructs exactly the
state replaying the whole pre-compaction journal would.
"""

import ast
import io
import json
import random
import re
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.persist import (
    DurableJobStore,
    Journal,
    JournalCorruptError,
    JournalError,
    recover_state,
    replay_journal,
)
from repro.persist.journal import HEADER_BYTES, MAX_RECORD_BYTES
from repro.server.jobs import DuplicateJobError, JobState
from repro.telemetry import MetricsRegistry


def frame(payload: bytes) -> bytes:
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


def parent_frame(record: dict) -> bytes:
    """One journal frame, by the expression the journal had before results were kept as bytes."""
    return frame(json.dumps(record, separators=(",", ":")).encode("utf-8"))


def parent_snapshot(docs: list[dict], next_seq: int) -> bytes:
    """The snapshot file, by the ``json.dump`` expression ``compact()`` used to be."""
    out = io.StringIO()
    json.dump({"version": 1, "next_seq": next_seq, "jobs": docs}, out, separators=(",", ":"))
    return out.getvalue().encode("utf-8")


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "j.wal"
        records = [{"op": "create", "id": f"j{i}", "n": i} for i in range(20)]
        with Journal(path, fsync="never") as journal:
            for record in records:
                journal.append(record)
            assert journal.records == 20
        assert list(replay_journal(path)) == records

    def test_missing_file_replays_empty(self, tmp_path):
        assert list(replay_journal(tmp_path / "absent.wal")) == []

    def test_torn_tail_tolerated_and_truncated(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal(path, fsync="never") as journal:
            journal.append({"op": "a"})
            journal.append({"op": "b"})
        # Simulate a crash mid-append: a header promising more bytes
        # than follow it.
        with open(path, "ab") as fh:
            fh.write(struct.pack(">II", 999, 0) + b"only-a-few")
        assert [r["op"] for r in replay_journal(path)] == ["a", "b"]
        # Re-opening for append drops the torn bytes...
        with Journal(path, fsync="never") as journal:
            assert journal.records == 2
            journal.append({"op": "c"})
        # ...so the new record extends a clean tail.
        assert [r["op"] for r in replay_journal(path)] == ["a", "b", "c"]

    def test_torn_header_tolerated(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal(path, fsync="never") as journal:
            journal.append({"op": "a"})
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")  # less than a full header
        assert [r["op"] for r in replay_journal(path)] == ["a"]

    def test_checksum_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal(path, fsync="never") as journal:
            journal.append({"op": "a"})
            journal.append({"op": "b"})
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the *first* record: a complete record
        # that no longer matches its checksum is corruption, not a tear.
        data[HEADER_BYTES + 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            list(replay_journal(path))
        with pytest.raises(JournalCorruptError):
            Journal(path, fsync="never")

    def test_implausible_length_refused(self, tmp_path):
        path = tmp_path / "j.wal"
        payload = b'{"op":"a"}'
        frame = struct.pack(">II", 2**31, zlib.crc32(payload)) + payload
        path.write_bytes(frame)
        with pytest.raises(JournalCorruptError):
            list(replay_journal(path))

    def test_reset_empties_the_file(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal(path, fsync="never") as journal:
            journal.append({"op": "a"})
            journal.reset()
            assert journal.records == 0
            assert journal.size_bytes == 0
            journal.append({"op": "z"})
        assert [r["op"] for r in replay_journal(path)] == ["z"]

    def test_fsync_policies(self, tmp_path):
        clock = FakeClock()
        j = Journal(tmp_path / "a.wal", fsync="always", clock=clock)
        j.append({})
        j.append({})
        assert j.syncs == 2
        j.close()
        j = Journal(tmp_path / "i.wal", fsync="interval", fsync_interval_s=10.0, clock=clock)
        j.append({})  # within the interval: flushed, not fsynced
        assert j.syncs == 0
        clock.advance(11.0)
        j.append({})
        assert j.syncs == 1
        j.close()
        j = Journal(tmp_path / "n.wal", fsync="never", clock=clock)
        j.append({})
        assert j.syncs == 0
        j.close()

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            Journal(tmp_path / "j.wal", fsync="sometimes")

    def test_one_append_of_many_records_is_one_write(self, tmp_path):
        """Each payload is a record framed on its own; together they cost
        one write, one flush and, under ``always``, one fsync."""
        payloads = [json.dumps({"op": "create", "id": f"j{i}"}).encode() for i in range(3)]
        with Journal(tmp_path / "j.wal", fsync="always") as journal:
            written = journal.append_payload(*payloads)
            assert (journal.writes, journal.syncs, journal.records) == (1, 1, 3)
            journal.append_payload(payloads[0])
            assert (journal.writes, journal.syncs, journal.records) == (2, 2, 4)
        assert written == len(b"".join(map(frame, payloads)))
        assert (tmp_path / "j.wal").read_bytes() == b"".join(map(frame, payloads + payloads[:1]))
        assert list(replay_journal(tmp_path / "j.wal")) == [
            json.loads(payload) for payload in payloads + payloads[:1]
        ]


class TestRecoverState:
    def test_lifecycle_fold(self):
        records = [
            {"op": "create", "id": "j000001", "kind": "predict", "payload": {"x": 1}},
            {"op": "create", "id": "j000002", "kind": "schedule", "payload": {}},
            {"op": "done", "id": "j000001", "result": {"t": 2.5}},
        ]
        docs, next_seq = recover_state(None, records)
        assert next_seq == 3
        assert [d["id"] for d in docs] == ["j000001", "j000002"]
        assert docs[0]["state"] == "done" and docs[0]["result"] == {"t": 2.5}
        # Not finished at crash time, started or not: recovered as queued.
        assert docs[1]["state"] == "queued"
        # An older journal's `running` records are unknown ops: the same fold.
        older = records[:2] + [{"op": "running", "id": "j000001"}, records[2]]
        older.append({"op": "running", "id": "j000002"})
        assert recover_state(None, older) == (docs, next_seq)

    def test_evict_drops_the_job(self):
        records = [
            {"op": "create", "id": "j000001", "kind": "predict", "payload": {}},
            {"op": "done", "id": "j000001", "result": {}},
            {"op": "evict", "id": "j000001"},
        ]
        docs, next_seq = recover_state(None, records)
        assert docs == []
        assert next_seq == 2  # the id stays burned even after eviction

    def test_lenient_replay_skips_stale_records(self):
        records = [
            {"op": "running", "id": "ghost"},  # unknown job
            {"op": "create", "id": "j000001", "kind": "k", "payload": {}},
            {"op": "create", "id": "j000001", "kind": "other", "payload": {}},  # re-create
            {"op": "done", "id": "j000001", "result": {"v": 1}},
            {"op": "done", "id": "j000001", "result": {"v": 2}},  # already terminal
            {"op": "nonsense", "id": "j000001"},  # unknown op
        ]
        docs, _ = recover_state(None, records)
        assert len(docs) == 1
        assert docs[0]["kind"] == "k"
        assert docs[0]["result"] == {"v": 1}

    def test_snapshot_plus_tail_equals_full_journal(self):
        """The compaction-correctness property, as a pure fold."""
        full = [
            {"op": "create", "id": "j000001", "kind": "a", "payload": {"i": 1}},
            {"op": "create", "id": "j000002", "kind": "b", "payload": {"i": 2}},
            {"op": "running", "id": "j000001"},
            {"op": "done", "id": "j000001", "result": {"t": 1.0}},
            {"op": "create", "id": "j000003", "kind": "c", "payload": {"i": 3}},
            {"op": "running", "id": "j000002"},
            {"op": "failed", "id": "j000002", "error": "boom"},
            {"op": "evict", "id": "j000001"},
        ]
        for cut in range(len(full) + 1):
            prefix_docs, prefix_seq = recover_state(None, full[:cut])
            snapshot = {"version": 1, "next_seq": prefix_seq, "jobs": prefix_docs}
            resumed = recover_state(snapshot, full[cut:])
            assert resumed == recover_state(None, full), f"diverged at cut={cut}"

    def test_a_finished_job_keeps_no_payload(self):
        records = [
            {"op": "create", "id": f"j00000{i}", "kind": "predict", "payload": {"i": i}}
            for i in (1, 2, 3)
        ] + [
            {"op": "done", "id": "j000001", "result": {"t": 1.0}},
            {"op": "failed", "id": "j000002", "error": "boom"},
        ]
        docs, _ = recover_state(None, records)
        assert [doc["payload"] for doc in docs] == [{}, {}, {"i": 3}]
        # ... nor when it comes from a snapshot that still holds one.
        kept = {"id": "j000001", "kind": "predict", "payload": {"i": 1}, "state": "done",
                "request_id": "", "result": {"t": 1.0}}
        docs, _ = recover_state({"version": 1, "next_seq": 2, "jobs": [kept]}, [])
        assert docs == [{**kept, "payload": {}}]

    def test_next_seq_resumes_past_snapshot_and_foreign_ids(self):
        snapshot = {"version": 1, "next_seq": 4, "jobs": []}
        records = [
            {"op": "create", "id": "router-minted-uuid", "kind": "k", "payload": {}},
            {"op": "create", "id": "j000009", "kind": "k", "payload": {}},
        ]
        _, next_seq = recover_state(snapshot, records)
        assert next_seq == 10


class TestDurableJobStore:
    def _store(self, tmp_path, **kwargs) -> DurableJobStore:
        kwargs.setdefault("fsync", "never")
        return DurableJobStore(tmp_path / "data", **kwargs)

    def test_a_terminal_state_is_journaled_before_anyone_reads_it(self, tmp_path, monkeypatch):
        """During the ``done`` and ``failed`` appends the job still reads
        ``running`` — a crash there cannot un-finish an acknowledged job —
        and a lookup from another thread does not wait on the append."""
        store = self._store(tmp_path)
        done, failed = (store.create("predict", {"app": "lu.A"}) for _ in range(2))
        for job in (done, failed):
            store.mark_running(job.id)
        seen = []
        watched = [done, failed]
        append = store.journal.append_payload

        def appending(*payloads: bytes) -> int:
            with ThreadPoolExecutor(1) as reader:
                states = reader.submit(lambda: [store.get(j.id).state for j in watched])
                seen.append(states.result(timeout=10))
            return append(*payloads)

        monkeypatch.setattr(store.journal, "append_payload", appending)
        store.mark_done(done.id, {"execution_time": 1.0})
        store.mark_failed(failed.id, "boom")
        running = JobState.RUNNING
        assert seen == [[running, running], [JobState.DONE, running]]
        assert [store.get(j.id).state for j in (done, failed)] == [JobState.DONE, JobState.FAILED]
        # A run of three settles in one write; all three read running during it.
        watched[:] = run = [store.create("predict", {"app": "lu.A"}) for _ in range(3)]
        for job in run:
            store.mark_running(job.id)
        seen.clear()
        writes = store.journal.writes
        store.settle([(run[0].id, b'{"t":1}', None), (run[1].id, None, "boom"),
                      (run[2].id, b'{"t":2}', None)])
        assert seen == [[running] * 3]
        assert store.journal.writes == writes + 1
        assert [job.state for job in run] == [JobState.DONE, JobState.FAILED, JobState.DONE]
        assert [job.result for job in run] == [{"t": 1}, None, {"t": 2}]

    def test_a_store_abandoned_before_a_runs_write_recovers_the_run_queued_once(
        self, tmp_path, monkeypatch
    ):
        store = self._store(tmp_path)
        run = [store.create("predict", {"app": "lu.A", "i": i}) for i in range(3)]
        for job in run:
            store.mark_running(job.id)

        def dies(*payloads: bytes) -> int:
            raise OSError("the process died before the write")

        monkeypatch.setattr(store.journal, "append_payload", dies)
        with pytest.raises(OSError):
            store.settle([(job.id, b"{}", None) for job in run])
        assert [job.state for job in run] == [JobState.RUNNING] * 3  # nothing published
        reopened = self._store(tmp_path)  # the abandoned store is never closed
        recovered = reopened.take_recovered()
        assert [job.id for job in recovered] == [job.id for job in run]
        assert all(job.state is JobState.QUEUED for job in recovered)
        assert [job.payload for job in recovered] == [{"app": "lu.A", "i": i} for i in range(3)]
        assert reopened.take_recovered() == []
        assert len(reopened) == 3

    def test_a_batch_is_created_in_one_write_and_a_refused_one_writes_nothing(self, tmp_path):
        store = self._store(tmp_path)
        store.create("predict", {}, job_id="live")
        records, writes = store.journal.records, store.journal.writes
        for ids in (["a", "b", "live"], ["a", None, "a"]):
            with pytest.raises(DuplicateJobError):
                store.create_many([("predict", {"i": i}, job_id) for i, job_id in enumerate(ids)])
            assert (store.journal.records, store.journal.writes, len(store)) == (records, writes, 1)
        # A minted id steps over a caller's id of the same batch.
        jobs = store.create_many([("predict", {}, None), ("compare", {}, "j000001")],
                                 request_id="req-9")
        assert [job.id for job in jobs] == ["j000002", "j000001"]
        assert (store.journal.records, store.journal.writes) == (records + 2, writes + 1)
        created = list(replay_journal(store.journal.path))[-2:]
        assert [(r["op"], r["id"], r["kind"], r["request_id"]) for r in created] == [
            ("create", "j000002", "predict", "req-9"), ("create", "j000001", "compare", "req-9"),
        ]

    def test_a_finished_job_releases_its_payload(self, tmp_path):
        store = self._store(tmp_path)
        done, failed, queued = (store.create("predict", {"app": "lu.A"}) for _ in range(3))
        store.mark_running(done.id)
        store.mark_done(done.id, {"t": 1.0})
        store.mark_failed(failed.id, "boom")
        assert [job.payload for job in (done, failed, queued)] == [{}, {}, {"app": "lu.A"}]
        store.compact()
        snapshot = json.loads(store.snapshot_path.read_bytes())
        assert [doc["payload"] for doc in snapshot["jobs"]] == [{}, {}, {"app": "lu.A"}]

    def test_crash_reopen_recovers_everything(self, tmp_path):
        store = self._store(tmp_path)
        done = store.create("predict", {"app": "lu.A"})
        store.mark_running(done.id)
        store.mark_done(done.id, {"execution_time": 3.5})
        pending = store.create("schedule", {"app": "cg.B"}, request_id="req-7")
        running = store.create("predict", {"app": "mg.C"})
        store.mark_running(running.id)
        # No close(): simulate a crash by abandoning the store. The
        # journal was flushed on every append, so a new store sees it.
        reopened = self._store(tmp_path)
        job = reopened.get(done.id)
        assert job.state is JobState.DONE
        assert job.result == {"execution_time": 3.5}
        recovered = reopened.take_recovered()
        assert [j.id for j in recovered] == [pending.id, running.id]
        assert all(j.state is JobState.QUEUED for j in recovered)
        assert recovered[0].request_id == "req-7"
        assert reopened.take_recovered() == []  # handed out exactly once
        # Recovery compacted: snapshot exists, journal restarted empty.
        assert reopened.snapshot_path.exists()
        assert reopened.journal.records == 0
        assert reopened.compactions == 1
        # Minted ids resume past every recovered id.
        fresh = reopened.create("predict", {})
        assert fresh.id not in {done.id, pending.id, running.id}
        assert int(fresh.id[1:]) > int(running.id[1:])

    def test_recovery_is_idempotent_across_generations(self, tmp_path):
        store = self._store(tmp_path)
        job = store.create("predict", {"app": "x"})
        store.mark_running(job.id)
        store.mark_done(job.id, {"v": 1})
        for _ in range(3):
            store = self._store(tmp_path)
            assert store.get(job.id).result == {"v": 1}
            assert store.take_recovered() == []

    def test_duplicate_client_id_rejected(self, tmp_path):
        store = self._store(tmp_path)
        store.create("predict", {}, job_id="mine")
        with pytest.raises(DuplicateJobError):
            store.create("predict", {}, job_id="mine")

    def test_compaction_triggered_by_journal_growth(self, tmp_path):
        store = self._store(tmp_path, compact_bytes=512)
        for i in range(32):
            job = store.create("predict", {"filler": "x" * 40, "i": i})
            store.mark_running(job.id)
            store.mark_done(job.id, {"i": i})
        assert store.compactions >= 1
        # Bounded, not ever-growing: by the larger of compact_bytes and
        # the last snapshot, plus the record that tripped the trigger.
        assert store.journal.size_bytes <= max(512, store.snapshot_path.stat().st_size) + 200
        # Everything is still there after the folds.
        reopened = self._store(tmp_path, compact_bytes=512)
        assert len(reopened.list()) == 32

    def test_compaction_work_is_linear_in_bytes_appended(self, tmp_path):
        """A snapshot is rewritten only once the journal has outgrown the last one."""
        registry = MetricsRegistry()
        store = self._store(tmp_path, compact_bytes=512, metrics=registry)
        snapshot_bytes = 0
        compact = store.compact

        def counting_compact() -> None:
            nonlocal snapshot_bytes
            compact()
            snapshot_bytes += store.snapshot_path.stat().st_size

        store.compact = counting_compact
        for i in range(300):
            job = store.create("predict", {"filler": "x" * 40, "i": i})
            store.mark_running(job.id)
            store.mark_done(job.id, {"i": i})
        appended = registry.snapshot()["cbes_journal_bytes_total"]["samples"][0]["value"]
        assert store.compactions >= 3
        # Triggering on compact_bytes alone wrote ~40x the bytes appended here.
        assert snapshot_bytes <= 3 * appended
        assert len(self._store(tmp_path, compact_bytes=512).list()) == 300

    def test_expiry_queue_journals_evictions_in_finished_order(self, tmp_path):
        clock = FakeClock()
        evicted = []
        store = self._store(
            tmp_path, ttl_s=5.0, clock=clock, on_evict=lambda job, age: evicted.append(job.id)
        )
        ids = []
        for _ in range(3):
            job = store.create("predict", {})
            store.mark_failed(job.id, "x")
            ids.append(job.id)
            clock.advance(1.0)
        keeper = store.create("predict", {})
        clock.advance(3.5)  # t0+6.5: finished at t0 and t0+1 are past the 5 s TTL
        assert store.evict_expired() == 2
        assert evicted == ids[:2]
        records = [r for r in replay_journal(store.journal.path) if r["op"] == "evict"]
        assert [r["id"] for r in records] == ids[:2]
        reopened = self._store(tmp_path, clock=clock)
        assert {job.id for job in reopened.list()} == {ids[2], keeper.id}

    def test_recovered_terminal_jobs_expire_one_ttl_after_restart(self, tmp_path):
        clock = FakeClock()
        store = self._store(tmp_path, ttl_s=5.0, clock=clock)
        done = store.create("predict", {})
        store.mark_running(done.id)
        store.mark_done(done.id, {"v": 1})
        failed = store.create("predict", {})
        store.mark_failed(failed.id, "x")
        requeued = store.create("predict", {})
        clock.advance(100.0)  # the old process's stamps mean nothing to the new one
        evicted = []
        reopened = self._store(
            tmp_path, ttl_s=5.0, clock=clock, on_evict=lambda job, age: evicted.append(job.id)
        )
        assert reopened.recovered_terminal == 2
        clock.advance(4.9)
        assert reopened.evict_expired() == 0
        clock.advance(0.2)
        assert reopened.evict_expired() == 2
        assert evicted == [done.id, failed.id]
        assert [job.id for job in reopened.list()] == [requeued.id]
        # The evictions were journaled: a third generation does not see them.
        third = self._store(tmp_path, clock=clock)
        assert [job.id for job in third.list()] == [requeued.id]

    def test_eviction_is_journaled(self, tmp_path):
        clock = FakeClock()
        evicted = []
        store = self._store(
            tmp_path, ttl_s=5.0, clock=clock, on_evict=lambda job, age: evicted.append(job.id)
        )
        job = store.create("predict", {})
        store.mark_running(job.id)
        store.mark_done(job.id, {})
        clock.advance(10.0)
        assert store.evict_expired() == 1
        assert evicted == [job.id]  # user callback still fires
        reopened = self._store(tmp_path, clock=clock)
        with pytest.raises(KeyError):
            reopened.get(job.id)

    def test_metrics_families_recorded(self, tmp_path):
        registry = MetricsRegistry()
        store = self._store(tmp_path, metrics=registry)
        job = store.create("predict", {})
        store.mark_running(job.id)
        store.mark_done(job.id, {})
        snapshot = registry.snapshot()
        appends = snapshot["cbes_journal_appends_total"]["samples"][0]["value"]
        assert appends == 2  # create and done: starting a job is not journaled
        assert snapshot["cbes_journal_bytes_total"]["samples"][0]["value"] > 0
        registry2 = MetricsRegistry()
        reopened = self._store(tmp_path, metrics=registry2)
        snap2 = registry2.snapshot()
        recovered = {
            s["labels"]["disposition"]: s["value"]
            for s in snap2["cbes_jobs_recovered_total"]["samples"]
        }
        assert recovered == {"retained": 1}
        assert snap2["cbes_journal_compactions_total"]["samples"][0]["value"] == 1

    def test_corrupt_journal_refused_at_boot(self, tmp_path):
        store = self._store(tmp_path)
        store.create("predict", {})
        store.close()
        wal = Path(store.journal.path)
        data = bytearray(wal.read_bytes())
        data[-2] ^= 0xFF
        wal.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            self._store(tmp_path)

    def test_snapshot_document_shape(self, tmp_path):
        store = self._store(tmp_path)
        job = store.create("predict", {"app": "x"})
        store.mark_running(job.id)
        store.mark_done(job.id, {"t": 1.0})
        store.compact()
        doc = json.loads(store.snapshot_path.read_text("utf-8"))
        assert doc["version"] == 1
        assert doc["next_seq"] == 2
        assert doc["jobs"][0]["id"] == job.id
        assert doc["jobs"][0]["state"] == "done"
        assert doc["jobs"][0]["result"] == {"t": 1.0}


    @pytest.mark.parametrize(
        "content",
        [
            b'{"version":1,"next_seq":2,"jobs":[{"id":"j000001","kind":"predict","pay',
            b"",
            b"[]",
            b'{"version":1,"next_seq":2}',
            b'{"version":1,"next_seq":2,"jobs":{}}',
            b'{"version":1,"next_seq":2,"jobs":["j000001"]}',
            b'{"version":1,"next_seq":2,"jobs":[{"kind":"predict","payload":{},"state":"done"}]}',
            b'{"version":1,"next_seq":2,"jobs":[{"id":"j1","kind":"predict","state":"done"}]}',
            b'{"version":1,"next_seq":"2","jobs":[]}',
            b'{"version":1,"next_seq":2,"jobs":[]}\xff\xfe',
        ],
        ids=[
            "truncated", "empty", "a-list", "no-jobs", "jobs-not-a-list", "job-not-an-object",
            "job-without-id", "job-without-payload", "next_seq-not-an-int", "not-utf-8",
        ],
    )
    def test_corrupt_snapshot_refused_at_boot_with_a_typed_error(self, tmp_path, content):
        store = self._store(tmp_path)
        store.create("predict", {})
        store.close()
        store.snapshot_path.write_bytes(content)
        with pytest.raises(JournalCorruptError, match=DurableJobStore.SNAPSHOT_NAME):
            self._store(tmp_path)
        # Refused, not repaired: both files are as the operator will find them.
        assert store.snapshot_path.read_bytes() == content
        assert len(list(replay_journal(store.journal.path))) == 1

    def test_unencodable_result_raises_before_the_transition(self, tmp_path):
        store = self._store(tmp_path)
        job = store.create("predict", {})
        store.mark_running(job.id)
        appended = store.journal.records
        for hostile in ({"x": {1, 2}}, {"x": object()}):
            with pytest.raises(TypeError):
                store.mark_done(job.id, hostile)
        loop = {}
        loop["self"] = loop
        with pytest.raises(ValueError):
            store.mark_done(job.id, loop)
        assert job.state is JobState.RUNNING and job.result is None
        assert store.journal.records == appended  # memory and journal still agree
        store.mark_failed(job.id, "result is not JSON-serialisable")
        assert self._store(tmp_path).get(job.id).state is JobState.FAILED

    def test_data_dir_written_by_the_parents_expressions_boots(self, tmp_path):
        """On-disk compatibility, parent -> change: a snapshot and a journal
        tail made with the expressions the parent used (``json.dump`` of the
        whole document; ``json.dumps`` of every record) recover as they did.
        The other direction is ``TestResultBytesIdentity``: the change
        writes the parent's bytes.
        """
        data = tmp_path / "data"
        data.mkdir()
        result = {"execution_time": 3.5, "ranks": [{"r": 1e-320}, {"r": -0.0}], "app": "caf\u00e9"}
        snapshot_docs = [
            {"id": "j000001", "kind": "predict", "payload": {"app": "lu.A"}, "state": "done",
             "request_id": "req-1", "result": result},
            {"id": "j000002", "kind": "schedule", "payload": {"app": "cg.A"}, "state": "failed",
             "request_id": "", "error": "boom"},
            {"id": "j000003", "kind": "predict", "payload": {"app": "mg.A"}, "state": "running",
             "request_id": ""},
        ]
        tail = [
            {"op": "create", "id": "j000004", "kind": "compare", "payload": {"app": "x"},
             "request_id": "req-4"},
            {"op": "running", "id": "j000004"},
            {"op": "done", "id": "j000004", "result": {"ranked": [result, result]}},
            {"op": "evict", "id": "j000002"},
        ]
        (data / DurableJobStore.SNAPSHOT_NAME).write_bytes(parent_snapshot(snapshot_docs, 4))
        (data / DurableJobStore.JOURNAL_NAME).write_bytes(b"".join(map(parent_frame, tail)))
        store = self._store(tmp_path)
        assert [(job.id, job.state.value) for job in store.list()] == [
            ("j000001", "done"), ("j000003", "queued"), ("j000004", "done"),
        ]
        assert store.get("j000001").result == result
        assert store.get("j000004").result == {"ranked": [result, result]}
        assert [job.id for job in store.take_recovered()] == ["j000003"]
        assert store.create("predict", {}).id == "j000005"
        # ... and what recovery compacted is, again, the parent's file.
        docs, next_seq = recover_state(
            {"version": 1, "next_seq": 4, "jobs": snapshot_docs}, tail
        )
        for doc in docs:
            doc["state"] = "queued" if doc["state"] == "running" else doc["state"]
        store.discard("j000005")
        store.compact()
        assert store.snapshot_path.read_bytes() == parent_snapshot(docs, 6)


    def test_a_parent_journal_with_running_records_boots_the_same(self, tmp_path):
        """The parent journaled a ``running`` record as each job started.  A
        data dir holding them, one job's last record a ``running``, boots to
        the documents, re-enqueued ids and recovery counts of the same
        history without them, and those are the parent's: finished jobs
        kept, a started job rewound to ``queued`` and re-enqueued."""
        parent = [
            {"op": "create", "id": "j000001", "kind": "predict", "payload": {"app": "lu.A"},
             "request_id": "req-1"},
            {"op": "running", "id": "j000001"},
            {"op": "done", "id": "j000001", "result": {"execution_time": 2.5}},
            {"op": "create", "id": "j000002", "kind": "compare", "payload": {"app": "cg.A"},
             "request_id": ""},
            {"op": "create", "id": "j000003", "kind": "predict", "payload": {"app": "mg.A"},
             "request_id": "req-3"},
            {"op": "running", "id": "j000002"},
            {"op": "failed", "id": "j000002", "error": "boom"},
            {"op": "create", "id": "j000004", "kind": "predict", "payload": {"app": "ft.A"},
             "request_id": ""},
            {"op": "running", "id": "j000003"},
        ]

        def boot(name: str, records: list[dict]) -> tuple[list[dict], list[str], dict]:
            data = tmp_path / name
            data.mkdir()
            (data / DurableJobStore.JOURNAL_NAME).write_bytes(b"".join(map(parent_frame, records)))
            registry = MetricsRegistry()
            store = DurableJobStore(data, fsync="never", metrics=registry)
            docs = [
                {key: value for key, value in job.to_dict().items() if not key.endswith("_at")}
                for job in store.list()
            ]
            requeued = [job.id for job in store.take_recovered()]
            counts = {
                sample["labels"]["disposition"]: sample["value"]
                for sample in registry.snapshot()["cbes_jobs_recovered_total"]["samples"]
            }
            store.close()
            return docs, requeued, counts

        booted = boot("parent", parent)
        assert booted == boot("change", [r for r in parent if r["op"] != "running"])
        docs, requeued, counts = booted
        assert docs == [
            {"id": "j000001", "kind": "predict", "state": "done", "request_id": "req-1",
             "result": {"execution_time": 2.5}},
            {"id": "j000002", "kind": "compare", "state": "failed", "request_id": "",
             "error": "boom"},
            {"id": "j000003", "kind": "predict", "state": "queued", "request_id": "req-3"},
            {"id": "j000004", "kind": "predict", "state": "queued", "request_id": ""},
        ]
        assert requeued == ["j000003", "j000004"]
        assert counts == {"requeued": 2, "retained": 2}


def random_document(rng: random.Random, depth: int = 0):
    """A JSON value with the shapes and scalars encoders get wrong."""
    scalars = [
        None, True, False, 0, -1, 2**70, -(2**63) - 1, 1e-320, -0.0, 0.1, 1e308, 3.5, 1 / 3,
        "", "caf\u00e9", "\x00\x1f\t\n\"\\/", "\u2028\ud83d\ude00", "</script>", "k" * 40,
    ]
    roll = rng.random()
    if depth >= 4 or roll < 0.45:
        value = rng.choice(scalars)
        return rng.uniform(-1e6, 1e6) if value == 3.5 else value
    if roll < 0.7:
        return [random_document(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    keys = ["", "id", "result", "op", "a b", "caf\u00e9", "\x01", "nested", "0", "x" * 20]
    return {
        rng.choice(keys) + str(i): random_document(rng, depth + 1)
        for i in range(rng.randrange(0, 5))
    }


class TestResultBytesIdentity:
    """A result is encoded once and its bytes are spliced everywhere —
    and every file is, byte for byte, what encoding the whole record /
    the whole store with the stdlib would have written."""

    DOCUMENTS = 600

    def test_journal_snapshot_and_job_documents_over_random_results(self, tmp_path):
        rng = random.Random(20050927)
        store = DurableJobStore(tmp_path / "data", fsync="never", compact_bytes=1 << 40)
        wal = Path(store.journal.path)
        records: list[dict] = []
        #: Jobs left running: the snapshot says so, the journal cannot.
        running: set[str] = set()
        checked = 0
        for i in range(self.DOCUMENTS):
            payload = {"app": "cg.A", "arg": random_document(rng, 3)}
            result = {"value": random_document(rng), "i": i}
            job = store.create("predict", payload, request_id=rng.choice(["", f"req-{i}"]))
            records.append({"op": "create", "id": job.id, "kind": "predict", "payload": payload,
                            "request_id": job.request_id})
            fate = rng.choice(["queued", "running", "done", "done", "done", "failed", "evict"])
            if fate != "queued":
                if fate != "failed" or rng.random() < 0.5:
                    store.mark_running(job.id)  # journals nothing
                if fate == "running":
                    running.add(job.id)
                elif fate == "failed":
                    store.mark_failed(job.id, f"boom \u2028 {i}")
                    records.append({"op": "failed", "id": job.id, "error": f"boom \u2028 {i}"})
                elif fate != "running":
                    store.mark_done(job.id, result)
                    records.append({"op": "done", "id": job.id, "result": result})
                    assert job.result == json.loads(json.dumps(result))
                if fate == "evict":
                    store.discard(job.id)
                    records.append({"op": "evict", "id": job.id})
            assert json.loads(job.to_json()) == job.to_dict()
            if i % 97 == 96 or i == self.DOCUMENTS - 1:
                # Journal: the frames of the records since the last compaction.
                assert wal.read_bytes() == b"".join(map(parent_frame, records[checked:]))
                checked = len(records)
                docs, next_seq = recover_state(None, records)
                for doc in docs:
                    doc["state"] = "running" if doc["id"] in running else doc["state"]
                store.compact()
                assert store.snapshot_path.read_bytes() == parent_snapshot(docs, next_seq)
                assert wal.read_bytes() == b""
        assert sum(1 for record in records if record["op"] == "done") >= 200
        # Reopen -> recover -> compact: unfinished jobs rewind to queued,
        # everything else is reproduced to the byte.
        store.close()
        before = json.loads(store.snapshot_path.read_bytes())
        for doc in before["jobs"]:
            doc["state"] = "queued" if doc["state"] == "running" else doc["state"]
        reopened = DurableJobStore(tmp_path / "data", fsync="never")
        assert reopened.snapshot_path.read_bytes() == parent_snapshot(
            before["jobs"], before["next_seq"]
        )
        for job in reopened.list():
            assert json.loads(job.to_json()) == job.to_dict()
        reopened.close()

    def test_one_encoder_no_dump_calls_no_dict_typed_result(self):
        """`persist/journal.py`, `persist/store.py`, `server/jobs.py`,
        `server/protocol.py`, `fleet/transport.py` and `fleet/router.py`
        write JSON through `repro._util.encode_json` alone, and a `Job`
        stores its result as bytes only."""
        import dataclasses

        from repro.server.jobs import Job

        root = Path(repro.__file__).resolve().parent
        encoders = {}
        for where in ("persist/journal.py", "persist/store.py", "server/jobs.py",
                      "server/protocol.py", "fleet/transport.py", "fleet/router.py"):
            tree = ast.parse((root / where).read_text(), where)
            imported, called = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    imported |= {(node.module, alias.name) for alias in node.names}
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if isinstance(node.func.value, ast.Name) and node.func.value.id == "json":
                        called.add(node.func.attr)
                elif isinstance(node, ast.Attribute) and node.attr == "JSONEncoder":
                    called.add(node.attr)
            assert called <= {"loads"}, f"{where} encodes JSON on its own: {sorted(called)}"
            encoders[where] = imported & {
                ("repro._util", "encode_json"),
                ("repro.server.jobs", "spliced"),
                ("repro.server.protocol", "lookup_body"),
            }
        assert all(encoders.values()), encoders
        fields = {field.name: field.type for field in dataclasses.fields(Job)}
        assert "result" not in fields and fields["result_json"] == "bytes | None"
        assert isinstance(Job.result, property)


class TestFuzzedFiles:
    """Seeded mutations of a valid journal and a valid snapshot: a typed
    refusal, or only what the mutated bytes really hold — never another
    exception, never a record that is not a complete, checksum-valid frame."""

    JOURNAL_MUTATIONS, SNAPSHOT_MUTATIONS = 1500, 700

    @staticmethod
    def _build(data: Path) -> tuple[bytes, bytes, list[dict]]:
        """(journal bytes, snapshot bytes, the journal's records) of a small history."""
        rng = random.Random(4)
        store = DurableJobStore(data, fsync="never", compact_bytes=1 << 40)
        for i in range(6):
            job = store.create("predict", {"app": "cg.A", "arg": random_document(rng, 3)})
            if i % 3:
                store.mark_running(job.id)
                store.mark_done(job.id, {"value": random_document(rng, 2), "i": i})
        store.compact()
        snapshot = store.snapshot_path.read_bytes()
        for i in range(8):
            job = store.create("compare", {"app": "lu.A", "i": i})
            store.mark_running(job.id)
            if i % 2:
                store.mark_done(job.id, {"value": random_document(rng, 2)})
            elif i % 4:
                store.mark_failed(job.id, "boom")
        journal = Path(store.journal.path).read_bytes()
        store.close()
        return journal, snapshot, list(replay_journal(store.journal.path))

    @staticmethod
    def _frames(data: bytes) -> tuple[list[bytes], bool]:
        """Reference decoder: (payloads of the leading valid frames, whether
        the frame after them is complete yet invalid)."""
        payloads, offset = [], 0
        while len(data) - offset >= HEADER_BYTES:
            length, crc = struct.unpack_from(">II", data, offset)
            if length > MAX_RECORD_BYTES:
                return payloads, True
            payload = data[offset + HEADER_BYTES : offset + HEADER_BYTES + length]
            if len(payload) < length:
                break
            if zlib.crc32(payload) != crc:
                return payloads, True
            payloads.append(payload)
            offset += HEADER_BYTES + length
        return payloads, False

    @staticmethod
    def _mutate(rng: random.Random, data: bytes, starts: list[int]) -> tuple[str, bytes]:
        """One mutation of *data*; *starts* are its record (or line-like) boundaries."""
        kind = rng.choice(["truncate", "flip-header", "flip-payload", "splice", "duplicate",
                           "garbage-tail", "drop-middle"])
        begin = rng.choice(starts[:-1])
        end = starts[starts.index(begin) + 1]
        if kind == "truncate":
            cut = rng.choice([begin, begin + rng.randrange(1, HEADER_BYTES), end - 1,
                              rng.randrange(len(data) + 1), 0, len(data)])
            return kind, data[: min(cut, len(data))]
        if kind in ("flip-header", "flip-payload"):
            span = (begin, begin + HEADER_BYTES) if kind == "flip-header" else (
                begin + HEADER_BYTES, end)
            at = rng.randrange(*span) if span[0] < span[1] else begin
            flipped = bytearray(data)
            flipped[at] ^= 1 << rng.randrange(8)
            return kind, bytes(flipped)
        if kind == "splice":
            at = rng.choice([rng.choice(starts), rng.randrange(len(data) + 1)])
            return kind, data[:at] + data[begin:end] + data[at:]
        if kind == "duplicate":
            return kind, data[:end] + data[begin:end] + data[end:]
        if kind == "drop-middle":
            return kind, data[:begin] + data[end:]
        return kind, data + rng.randbytes(rng.choice([1, 7, 8, 9, 64]))

    def test_mutated_journals_and_snapshots_fail_typed_or_read_true(self, tmp_path):
        journal, snapshot, records = self._build(tmp_path / "seed")
        starts, offset = [0], 0
        for payload in self._frames(journal)[0]:
            offset += HEADER_BYTES + len(payload)
            starts.append(offset)
        assert len(starts) == len(records) + 1 and starts[-1] == len(journal)
        rng = random.Random(22)
        data_dir = tmp_path / "fuzz"
        data_dir.mkdir()
        wal = data_dir / DurableJobStore.JOURNAL_NAME
        seen: dict[str, int] = {}
        for i in range(self.JOURNAL_MUTATIONS):
            kind, mutated = self._mutate(rng, journal, starts)
            wal.write_bytes(mutated)
            valid, corrupt = self._frames(mutated)
            expected = [json.loads(payload) for payload in valid]
            try:
                got = list(replay_journal(wal))
            except JournalCorruptError:
                outcome = "refused"
                assert corrupt, (kind, i)
            else:
                outcome = "read"
                assert not corrupt and got == expected, (kind, i)
                if kind == "truncate":
                    assert got == records[: len(got)] and len(got) == sum(
                        1 for start in starts[1:] if start <= len(mutated)
                    )
            seen[f"{kind}:{outcome}"] = seen.get(f"{kind}:{outcome}", 0) + 1
            # Opening for append agrees with replay, and drops only a torn tail.
            if corrupt:
                with pytest.raises(JournalCorruptError):
                    Journal(wal, fsync="never")
                assert wal.read_bytes() == mutated
            else:
                with Journal(wal, fsync="never") as opened:
                    assert opened.records == len(valid)
                assert wal.read_bytes() == b"".join(map(frame, valid))
            if i % 5 == 0:  # a full boot fsyncs a snapshot: sampled, same verdict
                wal.write_bytes(mutated)
                try:
                    store = DurableJobStore(data_dir, fsync="never")
                except JournalCorruptError:
                    assert corrupt, (kind, i)
                else:
                    assert not corrupt, (kind, i)
                    docs, _ = recover_state(None, expected)
                    assert [job.id for job in store.list()] == [doc["id"] for doc in docs]
                    store.close()
                    store.snapshot_path.unlink(missing_ok=True)
        assert all(seen.get(f"{kind}:refused", 0) > 20 for kind in ("flip-header", "flip-payload"))
        assert all(seen.get(f"{kind}:read", 0) > 20 for kind in ("truncate", "duplicate", "splice"))

        # The snapshot has no checksum: any mutation either still parses to
        # a well-shaped document or is refused with the typed error.
        marks = [0, *(m.end() for m in re.finditer(rb"\},\{", snapshot)), len(snapshot)]
        wal.write_bytes(b"")
        refused = booted = 0
        for i in range(self.SNAPSHOT_MUTATIONS):
            kind, mutated = self._mutate(rng, snapshot, marks)
            (data_dir / DurableJobStore.SNAPSHOT_NAME).write_bytes(mutated)
            try:
                store = DurableJobStore(data_dir, fsync="never")
            except JournalCorruptError as exc:
                refused += 1
                assert DurableJobStore.SNAPSHOT_NAME in str(exc)
            else:
                booted += 1
                parsed = json.loads(mutated)  # it booted, so it must be a document
                assert {job.id for job in store.list()} == {doc["id"] for doc in parsed["jobs"]}
                store.close()
            wal.write_bytes(b"")
        assert refused > 100 and booted > 20
        assert isinstance(JournalCorruptError("x"), JournalError)

"""Unit tests for the write-ahead journal and the durable job store.

The properties pinned here are the ones crash recovery rests on: torn
tails are tolerated (truncated, replay stops at the last complete
record), checksum mismatches are *refused*, and replaying
``snapshot + journal-tail`` after a compaction reconstructs exactly the
state replaying the whole pre-compaction journal would.
"""

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.persist import (
    DurableJobStore,
    Journal,
    JournalCorruptError,
    recover_state,
    replay_journal,
)
from repro.persist.journal import HEADER_BYTES
from repro.server.jobs import DuplicateJobError, JobState
from repro.telemetry import MetricsRegistry


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


class TestRecoverState:
    def test_lifecycle_fold(self):
        records = [
            {"op": "create", "id": "j000001", "kind": "predict", "payload": {"x": 1}},
            {"op": "create", "id": "j000002", "kind": "schedule", "payload": {}},
            {"op": "running", "id": "j000001"},
            {"op": "done", "id": "j000001", "result": {"t": 2.5}},
            {"op": "running", "id": "j000002"},
        ]
        docs, next_seq = recover_state(None, records)
        assert next_seq == 3
        assert [d["id"] for d in docs] == ["j000001", "j000002"]
        assert docs[0]["state"] == "done" and docs[0]["result"] == {"t": 2.5}
        # Running at crash time: recovered as running (the store rewinds
        # it to queued when materializing the Job).
        assert docs[1]["state"] == "running"

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
        assert appends == 3
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

"""Unit tests for the daemon's job store (lifecycle + TTL eviction)."""

import gc
import json
import random
import tracemalloc

import pytest

from repro.core import CBES, TaskMapping
from repro.server.jobs import JobState, JobStateError, JobStore
from repro.server.serialize import prediction_to_dict
from repro.workloads import CG


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def store(clock):
    return JobStore(ttl_s=10.0, clock=clock)


class TestLifecycle:
    def test_create_assigns_unique_ids(self, store):
        a = store.create("schedule", {"app": "lu.A"})
        b = store.create("predict", {"app": "lu.A"})
        assert a.id != b.id
        assert a.state is JobState.QUEUED
        assert store.get(a.id) is a
        assert [j.id for j in store.list()] == [a.id, b.id]

    def test_happy_path_transitions(self, store, clock):
        job = store.create("schedule", {})
        clock.advance(1.0)
        store.mark_running(job.id)
        assert job.state is JobState.RUNNING
        assert job.started_at == 1.0
        clock.advance(2.0)
        store.mark_done(job.id, {"predicted_time": 4.2})
        assert job.state is JobState.DONE
        assert job.finished_at == 3.0
        assert job.result == {"predicted_time": 4.2}

    def test_failure_records_error(self, store):
        job = store.create("schedule", {})
        store.mark_running(job.id)
        store.mark_failed(job.id, "boom")
        assert job.state is JobState.FAILED
        assert job.error == "boom"
        assert "error" in job.to_dict()

    def test_queued_job_may_fail_directly(self, store):
        # A drain deadline can expire before a worker picks the job up.
        job = store.create("schedule", {})
        store.mark_failed(job.id, "daemon shut down")
        assert job.state is JobState.FAILED

    @pytest.mark.parametrize(
        "sequence",
        [
            ["done"],                      # queued -> done skips running
            ["running", "running"],        # double start
            ["running", "done", "done"],   # double finish
            ["running", "done", "failed"], # finish then fail
            ["running", "failed", "running"],
        ],
    )
    def test_illegal_transitions_raise(self, store, sequence):
        job = store.create("schedule", {})
        marks = {
            "running": store.mark_running,
            "done": lambda jid: store.mark_done(jid, {}),
            "failed": lambda jid: store.mark_failed(jid, "x"),
        }
        with pytest.raises(JobStateError):
            for step in sequence:
                marks[step](job.id)

    def test_unknown_job_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("j999999")
        with pytest.raises(KeyError):
            store.mark_running("j999999")

    def test_discard_forgets_job(self, store):
        job = store.create("schedule", {})
        store.discard(job.id)
        with pytest.raises(KeyError):
            store.get(job.id)
        store.discard(job.id)  # idempotent

    def test_counts(self, store):
        a = store.create("schedule", {})
        store.create("schedule", {})
        store.mark_running(a.id)
        assert store.counts() == {"queued": 1, "running": 1, "done": 0, "failed": 0}


class TestTtlEviction:
    def test_finished_jobs_expire(self, store, clock):
        job = store.create("schedule", {})
        store.mark_running(job.id)
        store.mark_done(job.id, {})
        clock.advance(9.9)
        assert store.evict_expired() == 0
        assert len(store) == 1
        clock.advance(0.2)
        assert store.evict_expired() == 1
        with pytest.raises(KeyError):
            store.get(job.id)

    def test_pending_jobs_never_expire(self, store, clock):
        queued = store.create("schedule", {})
        running = store.create("schedule", {})
        store.mark_running(running.id)
        clock.advance(1e6)
        assert store.evict_expired() == 0
        assert store.get(queued.id) is queued
        assert store.get(running.id) is running

    def test_failed_jobs_expire_too(self, store, clock):
        job = store.create("schedule", {})
        store.mark_failed(job.id, "x")
        clock.advance(11.0)
        assert store.evict_expired() == 1

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            JobStore(ttl_s=0.0)

    def test_eviction_reports_each_job_through_on_evict(self, clock):
        """Satellite fix: evictions are observable, not silent."""
        seen: list[tuple[str, float]] = []
        store = JobStore(
            ttl_s=10.0, clock=clock, on_evict=lambda job, age: seen.append((job.id, age))
        )
        a = store.create("schedule", {})
        b = store.create("predict", {})
        store.mark_running(a.id)
        store.mark_done(a.id, {})
        store.mark_failed(b.id, "x")
        clock.advance(25.0)
        assert store.evict_expired() == 2
        assert {jid for jid, _ in seen} == {a.id, b.id}
        assert all(age == 25.0 for _, age in seen)

    def test_eviction_logs_job_id_and_age_at_debug(self, store, clock, caplog):
        job = store.create("schedule", {})
        store.mark_running(job.id)
        store.mark_done(job.id, {})
        clock.advance(12.5)
        with caplog.at_level("DEBUG", logger="repro.server.jobs"):
            assert store.evict_expired() == 1
        messages = [r.getMessage() for r in caplog.records]
        assert any(job.id in m and "12.5" in m for m in messages)


class TestLookupByIds:
    def _finished(self, store, clock, n):
        jobs = []
        for _ in range(n):
            clock.advance(1.0)
            job = store.create("predict", {})
            store.mark_running(job.id)
            store.mark_done(job.id, {})
            jobs.append(job)
        return jobs

    def test_unknown_ids_are_omitted_and_order_is_oldest_first(self, store, clock):
        a, b, c = self._finished(store, clock, 3)
        assert store.list(ids=[c.id, "no-such-job", a.id]) == [a, c]
        assert store.list(ids=[]) == []
        assert store.list(ids=["no-such-job"]) == []

    def test_duplicates_yield_the_job_once(self, store, clock):
        a, b = self._finished(store, clock, 2)
        assert store.list(ids=[b.id, a.id, b.id, b.id]) == [a, b]

    def test_state_still_filters(self, store, clock):
        done, _ = self._finished(store, clock, 2)
        queued = store.create("predict", {})
        ids = [queued.id, done.id]
        assert store.list(ids=ids, state="done") == [done]
        assert store.list(ids=ids, state=JobState.QUEUED) == [queued]
        assert store.list(ids=ids, state="failed") == []

    def test_evicted_ids_are_absent(self, store, clock):
        (job,) = self._finished(store, clock, 1)
        clock.advance(11.0)
        store.evict_expired()
        assert store.list(ids=[job.id]) == []


class TestTerminalStatePublishedLast:
    @pytest.mark.parametrize("outcome", ["done", "failed"])
    def test_outcome_is_set_before_the_state_flips(self, outcome):
        """The finish stamp is read with the result in place and the state not yet terminal."""
        seen = []
        watched = []

        def clock() -> float:
            seen.extend((job.state, job.result, job.error) for job in watched)
            return 1.0

        store = JobStore(ttl_s=10.0, clock=clock)
        job = store.create("predict", {})
        store.mark_running(job.id)
        watched.append(job)
        if outcome == "done":
            store.mark_done(job.id, {"v": 1})
            assert seen == [(JobState.RUNNING, {"v": 1}, None)]
        else:
            store.mark_failed(job.id, "boom")
            assert seen == [(JobState.RUNNING, None, "boom")]
        assert job.state.value == outcome and job.finished_at == 1.0


class TestResultStoredAsBytes:
    def test_to_json_parses_equal_to_to_dict_in_every_state(self, store, clock):
        job = store.create("predict", {"app": "lu.A"}, request_id="req-1")
        other = store.create("predict", {})
        documents = [(job.to_json(), job.to_dict())]
        clock.advance(1.5)
        store.mark_running(job.id)
        documents.append((job.to_json(), job.to_dict()))
        store.mark_done(job.id, {"t": 1e-320, "ranks": [{"r": -0.0}, {}], "app": "caf\u00e9\x00"})
        documents.append((job.to_json(), job.to_dict()))
        store.mark_failed(other.id, 'drained "before" start')
        documents.append((other.to_json(), other.to_dict()))
        for raw, doc in documents:
            assert json.loads(raw) == doc
        assert [doc["state"] for _, doc in documents] == ["queued", "running", "done", "failed"]
        assert "result" in documents[2][1] and "error" in documents[3][1]
        # The stored form is the compact encoding, and the only one.
        assert job.result_json == json.dumps(job.result, separators=(",", ":")).encode()
        assert job.result_json in job.to_json()

    def test_result_setter_encodes_and_none_clears(self, store):
        job = store.create("predict", {})
        job.result = {"v": [1, 2.5]}
        assert job.result_json == b'{"v":[1,2.5]}' and job.result == {"v": [1, 2.5]}
        job.result = None
        assert job.result_json is None and job.result is None

    def test_unencodable_result_leaves_the_job_running(self, store):
        job = store.create("predict", {})
        store.mark_running(job.id)
        with pytest.raises(TypeError):
            store.mark_done(job.id, {"x": {1, 2}})
        assert job.state is JobState.RUNNING and job.result_json is None
        assert job.finished_at is None
        store.mark_done(job.id, {"x": [1, 2]})
        assert job.state is JobState.DONE

    def test_finished_results_take_well_under_half_their_dict_trees(self, og_cluster):
        """Residency as a ratio: 512 finished ``cg.A``/8 results (three
        predict quotes to one 8-way compare, the ``sweep_batch`` mix) as the
        store retains them, against the same documents as dict trees — both
        the trees ``JobRunner.execute`` builds (keys are shared interned
        literals: the smaller tree, measured 0.41) and the trees a recovery
        parses (every document owns its keys: 0.28).
        """
        service = CBES(og_cluster)
        service.profile_application(CG("A"), 8, seed=0)
        context = service.evaluator("cg.A").fast_context()
        nodes = og_cluster.node_ids()
        rng = random.Random(7)

        def quote() -> dict:
            return prediction_to_dict(context.breakdown(TaskMapping(rng.sample(nodes, 8))))

        def result(i: int) -> dict:
            doc = quote() if i % 4 else {"ranked": [quote() for _ in range(8)]}
            doc["snapshot_fingerprint"] = "f" * 32
            return doc

        def held_bytes(build) -> tuple[int, list]:
            """(bytes still allocated by, the list built by) *build*."""
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                keep = build()
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before, keep
            finally:
                tracemalloc.stop()

        count = 512
        store = JobStore()
        jobs = [store.create("predict", {}) for _ in range(count)]
        for job in jobs:
            store.mark_running(job.id)
        built, docs = held_bytes(lambda: [result(i) for i in range(count)])
        stored, _ = held_bytes(
            lambda: [store.mark_done(job.id, doc).id for job, doc in zip(jobs, docs)]
        )
        parsed, _ = held_bytes(lambda: [job.result for job in jobs])
        assert stored <= 0.5 * built, (stored / count, built / count)
        assert stored <= 0.35 * parsed, (stored / count, parsed / count)


class TestExpiryQueue:
    def test_evicts_in_finished_order_not_creation_order(self, clock):
        evicted: list[str] = []
        store = JobStore(ttl_s=10.0, clock=clock, on_evict=lambda job, age: evicted.append(job.id))
        first = store.create("predict", {})
        second = store.create("predict", {})
        pending = store.create("predict", {})
        clock.advance(1.0)
        store.mark_failed(second.id, "x")  # finishes at t=1
        clock.advance(4.0)
        store.mark_running(first.id)
        store.mark_done(first.id, {})  # finishes at t=5
        clock.advance(6.5)  # t=11.5: only the job that finished at t=1 is past its TTL
        assert store.evict_expired() == 1
        assert evicted == [second.id]
        clock.advance(4.0)  # t=15.5
        assert store.evict_expired() == 1
        assert evicted == [second.id, first.id]
        assert store.evict_expired() == 0
        assert store.list() == [pending]

    def test_one_call_drains_every_expired_job_oldest_first(self, clock):
        evicted: list[str] = []
        store = JobStore(ttl_s=10.0, clock=clock, on_evict=lambda job, age: evicted.append(job.id))
        ids = []
        for _ in range(5):
            job = store.create("predict", {})
            store.mark_failed(job.id, "x")
            ids.append(job.id)
            clock.advance(1.0)
        clock.advance(7.5)  # t=12.5: finished at 0, 1, 2 are expired; 3 and 4 are not
        assert store.evict_expired() == 3
        assert evicted == ids[:3]
        assert [job.id for job in store.list()] == ids[3:]

    def test_job_discarded_after_finishing_is_not_evicted_twice(self, clock):
        evicted: list[str] = []
        store = JobStore(ttl_s=10.0, clock=clock, on_evict=lambda job, age: evicted.append(job.id))
        job = store.create("predict", {}, job_id="mine")
        store.mark_failed(job.id, "x")
        store.discard(job.id)
        again = store.create("predict", {}, job_id="mine")  # the id is free again
        clock.advance(11.0)
        assert store.evict_expired() == 0
        assert evicted == [] and store.get("mine") is again

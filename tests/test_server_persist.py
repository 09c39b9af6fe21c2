"""Daemon-level persistence tests: restart, crash, and the new API knobs.

Two layers:

* in-process :class:`DaemonThread` restarts over a shared ``data_dir``
  (graceful shutdown → results survive; plus the satellite API changes:
  client-supplied ids, 409 on duplicates, recoverable 413, paging);
* the real thing — ``repro serve --data-dir`` in a subprocess killed
  with SIGKILL mid-queue, restarted on the same directory, which must
  re-enqueue and finish the jobs it had accepted.
"""

import signal
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.cluster import single_switch
from repro.core import CBES
from repro.persist import DurableJobStore, replay_journal
from repro.server import DaemonThread, JobFailed
from repro.server.client import CbesClient, ServerError
from repro.workloads import SyntheticBenchmark
from tests.http_conformance import OversizedBodyConformance, daemon_door, metric_value


def make_service() -> tuple[CBES, str]:
    service = CBES(single_switch("mini", 6))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
    service.profile_application(app, 3, seed=1)
    return service, app.name


@pytest.fixture(scope="module")
def service_and_app():
    return make_service()


NODES = ["mini-n00", "mini-n01", "mini-n02"]


class TestDurableDaemon(OversizedBodyConformance):
    # The recoverable-413 test is the shared one in tests/http_conformance.py.

    @pytest.fixture
    def front_door(self, service_and_app):
        return partial(daemon_door, service_and_app[0])

    def test_results_survive_daemon_restart(self, service_and_app, tmp_path):
        service, app = service_and_app
        data_dir = tmp_path / "data"
        with DaemonThread(service, workers=1, data_dir=data_dir, fsync="never") as srv:
            client = srv.client()
            job_id = client.submit("predict", app=app, nodes=NODES)["id"]
            result = client.wait(job_id, timeout_s=60)["result"]
            health = client.healthz()
            assert health["persistence"]["data_dir"] == str(data_dir)
        # Same directory, new daemon: the finished job is still pollable
        # with an identical result document.
        with DaemonThread(service, workers=1, data_dir=data_dir, fsync="never") as srv:
            client = srv.client()
            job = client.job(job_id)
            assert job["state"] == "done"
            assert job["result"] == result
            assert client.healthz()["persistence"]["recovered_terminal"] == 1
            # Ids minted after recovery never collide with recovered ones.
            fresh = client.submit("predict", app=app, nodes=NODES)["id"]
            assert fresh != job_id
            client.wait(fresh, timeout_s=60)

    def test_client_supplied_id_and_409_on_duplicate(self, service_and_app, tmp_path):
        service, app = service_and_app
        with DaemonThread(service, workers=1, data_dir=tmp_path / "data") as srv:
            client = srv.client()
            job = client.submit("predict", id="fleet-abc123", app=app, nodes=NODES)
            assert job["id"] == "fleet-abc123"
            client.wait("fleet-abc123", timeout_s=60)
            with pytest.raises(ServerError) as err:
                client.submit("predict", id="fleet-abc123", app=app, nodes=NODES)
            assert err.value.status == 409
            assert err.value.code == "duplicate-job"

    def test_jobs_listing_filters_and_paging(self, service_and_app, tmp_path):
        service, app = service_and_app
        with DaemonThread(service, workers=1, data_dir=tmp_path / "data") as srv:
            client = srv.client()
            ids = [client.submit("predict", app=app, nodes=NODES)["id"] for _ in range(5)]
            for job_id in ids:
                client.wait(job_id, timeout_s=60)
            done = client.jobs(state="done")
            assert [j["id"] for j in done] == ids
            assert client.jobs(state="failed") == []
            page = client.jobs(limit=2)
            assert [j["id"] for j in page] == ids[:2]
            rest = client.jobs(after=ids[1])
            assert [j["id"] for j in rest] == ids[2:]
            combo = client.jobs(state="done", after=ids[0], limit=2)
            assert [j["id"] for j in combo] == ids[1:3]
            with pytest.raises(ServerError) as err:
                client.jobs(after="no-such-job")
            assert err.value.status == 400
            with pytest.raises(ServerError):
                client.jobs(state="bogus")


    def test_unencodable_result_fails_the_job_not_the_worker(self, service_and_app, tmp_path):
        """A result JSON cannot carry: the job is ``failed`` in memory and in
        the journal alike, and the one worker goes on to serve the next job."""
        service, app = service_and_app
        data_dir = tmp_path / "data"
        with DaemonThread(service, workers=1, data_dir=data_dir, fsync="never") as srv:
            runner = srv.daemon.runner
            execute = runner.execute
            runner.execute = lambda job: {"x": {1, 2}}
            client = srv.client()
            bad = client.submit("predict", app=app, nodes=NODES)["id"]
            with pytest.raises(JobFailed, match="result is not JSON-serialisable"):
                client.wait(bad, timeout_s=60)
            runner.execute = execute
            good = client.submit("predict", app=app, nodes=NODES)["id"]
            assert client.wait(good, timeout_s=60)["state"] == "done"
            assert metric_value(client, "cbes_jobs_total", '{kind="predict",state="failed"}') == 1
            records = list(replay_journal(data_dir / DurableJobStore.JOURNAL_NAME))
        assert [(r["op"], r["id"]) for r in records] == [
            ("create", bad), ("failed", bad), ("create", good), ("done", good),
        ]
        assert "result is not JSON-serialisable" in records[1]["error"]


    def test_a_run_journals_every_transition_of_every_job(self, service_and_app, tmp_path):
        """Jobs run back to back on one thread still journal each job's
        transitions: ``create`` and ``done`` (a start is not journaled)."""
        service, app = service_and_app
        data_dir = tmp_path / "data"
        entries = [{"kind": "predict", "app": app, "nodes": NODES}] * 12 + [
            {"kind": "compare", "app": app, "mappings": [NODES, NODES[::-1]]}
        ] * 4
        with (
            DaemonThread(service, workers=2, data_dir=data_dir, fsync="never") as srv,
            srv.client() as client,
        ):
            ids = [job["id"] for job in client.submit_batch(entries)]
            client.wait_many(ids, timeout_s=60)
            records = list(replay_journal(data_dir / DurableJobStore.JOURNAL_NAME))
            # One write creates the batch, one settles its run.
            assert srv.daemon.store.journal.writes == 2
        assert [r["id"] for r in records if r["op"] == "create"] == ids
        ops: dict[str, list[str]] = {}
        for record in records:
            ops.setdefault(record["id"], []).append(record["op"])
        assert ops == {job_id: ["create", "done"] for job_id in ids}

    def test_a_refused_batch_writes_nothing_to_the_journal(self, service_and_app, tmp_path):
        """A 409 batch holds and journals nothing: neither when an id collides
        with a live job nor when two entries share one."""
        service, app = service_and_app
        entry = {"kind": "predict", "app": app, "nodes": NODES}
        with (
            DaemonThread(service, workers=1, data_dir=tmp_path / "data", fsync="never") as srv,
            srv.client() as client,
        ):
            client.wait(client.submit("predict", id="live", app=app, nodes=NODES)["id"])
            journal = srv.daemon.store.journal
            records = journal.records
            for ids in (["a", "b", "c", "live"], ["a", "b", "a", "d"]):
                with pytest.raises(ServerError) as err:
                    client.submit_batch([{**entry, "id": job_id} for job_id in ids])
                assert (err.value.status, err.value.code) == (409, "duplicate-job")
                assert journal.records == records
                assert len(srv.daemon.store) == 1
            assert [job["id"] for job in client.submit_batch([{**entry, "id": "a"}])] == ["a"]

    def test_a_quote_that_raises_mid_run_fails_alone(self, service_and_app, tmp_path):
        """A wrong-length mapping in the middle of a run fails that job; the
        others finish ``done``, and the run's outcomes are one journal write."""
        service, app = service_and_app
        entries = [
            {"kind": "predict", "app": app, "nodes": NODES},
            {"kind": "predict", "app": app, "nodes": NODES[:2]},
            {"kind": "compare", "app": app, "mappings": [NODES, NODES[::-1]]},
        ]
        with (
            DaemonThread(service, workers=1, data_dir=tmp_path / "data", fsync="never") as srv,
            srv.client() as client,
        ):
            ids = [job["id"] for job in client.submit_batch(entries)]
            with pytest.raises(JobFailed):
                client.wait_many(ids, timeout_s=60)
            # The run's jobs turn final together: the failure is seen with the rest.
            jobs = client.jobs(ids=ids)
            assert [job["state"] for job in jobs] == ["done", "failed", "done"]
            assert jobs[1]["error"].startswith("InvalidMappingError: ")
            assert srv.daemon.store.journal.writes == 2
            records = list(replay_journal(srv.daemon.store.journal.path))
        assert [(r["op"], r["id"]) for r in records] == [
            *(("create", job_id) for job_id in ids), ("done", ids[0]), ("failed", ids[1]),
            ("done", ids[2]),
        ]


class TestCrashRecoverySubprocess:
    """SIGKILL a durable daemon mid-queue; the restart must finish its jobs."""

    @pytest.fixture(scope="class")
    def db_dir(self, tmp_path_factory):
        from repro.cli import main

        db = str(tmp_path_factory.mktemp("cbes-crash-db"))
        assert main(["--db", db, "calibrate"]) == 0
        assert main(["--db", db, "profile", "lu.S", "--nprocs", "4"]) == 0
        return db

    def _serve(self, db_dir: str, data_dir: str) -> tuple[subprocess.Popen, int]:
        repo_root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "--db", db_dir,
                "serve", "--port", "0", "--workers", "1", "--log-level", "warning",
                "--data-dir", data_dir, "--fsync", "always",
            ],
            cwd=repo_root,
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = proc.stdout.readline()
        assert banner.startswith("serving on http://"), (
            banner,
            proc.stderr.read() if proc.poll() is not None else "",
        )
        return proc, int(banner.rstrip().rsplit(":", 1)[1])

    def test_sigkill_and_recover(self, db_dir, tmp_path):
        data_dir = str(tmp_path / "data")
        proc, port = self._serve(db_dir, data_dir)
        try:
            client = CbesClient("127.0.0.1", port)
            # One job finished before the crash...
            first = client.submit("schedule", app="lu.S", scheduler="cs")["id"]
            finished = client.wait(first, timeout_s=120)
            # ...and several accepted but (with one worker) still queued
            # or just started when the crash hits.
            queued = [
                client.submit("schedule", app="lu.S", scheduler="cs")["id"] for _ in range(3)
            ]
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        proc, port = self._serve(db_dir, data_dir)
        try:
            client = CbesClient("127.0.0.1", port)
            # The pre-crash result came back verbatim.
            job = client.job(first)
            assert job["state"] == "done"
            assert job["result"] == finished["result"]
            # Every accepted job was re-enqueued and runs to completion.
            for job_id in queued:
                done = client.wait(job_id, timeout_s=120)
                assert done["state"] == "done"
            health = client.healthz()
            assert health["persistence"]["recovered_terminal"] >= 1
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

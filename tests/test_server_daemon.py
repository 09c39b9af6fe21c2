"""Integration tests for the scheduling daemon.

An in-process daemon (dedicated thread + event loop, ephemeral port) is
exercised through the blocking ``repro.server.client`` — the same
protocol round-trip an external scheduler client would make: submit,
poll, backpressure, drain, and snapshot refresh.
"""

import ast
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

import repro.server
from repro.cluster import single_switch
from repro.core import CBES, MappingPrediction, ProcessPrediction, TaskMapping
from repro.core.errors import InvalidMappingError
from repro.core.fast_eval import EvaluationContext
from repro.schedulers import CbesScheduler
from repro.server import BackpressureError, DaemonThread, JobFailed, JobState, ServerError
from repro.server.jobs import Job
from repro.server.serialize import options_from_dict, prediction_to_dict
from repro.workloads import SyntheticBenchmark
from tests.http_conformance import JobLookupConformance, RoutingConformance, metric_value


def make_service() -> tuple[CBES, str]:
    """A calibrated 6-node service with one profiled application."""
    service = CBES(single_switch("mini", 6))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
    service.profile_application(app, 3, seed=1)
    return service, app.name


@pytest.fixture(scope="module")
def service_and_app():
    return make_service()


@pytest.fixture(scope="module")
def server(service_and_app):
    service, _ = service_and_app
    with DaemonThread(service, workers=2, queue_limit=8) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return server.client()


class TestEndpoints(RoutingConformance):
    # 404 / 405 come from the shared suite in tests/http_conformance.py.

    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["queue_limit"] == 8
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}
        assert health["monitoring"] is False

    def test_profiles(self, client, service_and_app):
        _, app_name = service_and_app
        assert client.profiles() == [app_name]

    def test_snapshot_matches_service(self, client, service_and_app):
        service, _ = service_and_app
        snapshot = client.snapshot()
        assert snapshot["fingerprint"] == service.snapshot().fingerprint()
        assert set(snapshot["nodes"]) == set(service.cluster.node_ids())


class TestJobLookup(JobLookupConformance):
    """``GET /v1/jobs?ids=...`` (tests/http_conformance.py), served by the daemon."""


class TestValidation:
    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"kind": "juggle"}, "kind"),
            ({"kind": "schedule", "app": "ghost"}, "no stored profile"),
            ({"kind": "schedule", "app": "APP", "scheduler": "magic"}, "unknown scheduler"),
            ({"kind": "schedule", "app": "APP", "pool": []}, "non-empty"),
            ({"kind": "schedule", "app": "APP", "pool": ["mars-1"]}, "unknown node"),
            ({"kind": "schedule", "app": "APP", "pool": ["mini-n00"], "arch": "x"}, "not both"),
            ({"kind": "schedule", "app": "APP", "arch": "warp-drive"}, "architecture"),
            ({"kind": "schedule", "app": "APP", "seed": "seven"}, "seed"),
            ({"kind": "schedule", "app": "APP", "options": {"warp": True}}, "option"),
            ({"kind": "schedule", "app": "APP", "options": {"communication": 3}}, "boolean"),
            ({"kind": "predict", "app": "APP"}, "nodes"),
            ({"kind": "predict", "app": "APP", "nodes": ["mars-1"]}, "unknown node"),
            ({"kind": "compare", "app": "APP", "mappings": []}, "non-empty"),
            ({"kind": "schedule", "app": "APP", "frobnicate": 1}, "unknown payload field"),
        ],
    )
    def test_bad_submissions_rejected_400(self, client, service_and_app, payload, fragment):
        _, app_name = service_and_app
        if payload.get("app") == "APP":
            payload = {**payload, "app": app_name}
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/jobs", payload)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    def test_malformed_json_400(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("POST", "/v1/jobs", b"{nope", {"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_app_name_resolves_case_insensitively(self, client, service_and_app):
        _, app_name = service_and_app
        job = client.submit("predict", app=app_name.upper(), nodes=["mini-n00", "mini-n01", "mini-n02"])
        done = client.wait(job["id"], timeout_s=30)
        assert done["result"]["execution_time"] > 0


class TestJobRoundTrip:
    def test_schedule_matches_direct_call(self, client, service_and_app):
        """Acceptance: remote CS job == CBES.schedule() with the same seed."""
        service, app_name = service_and_app
        pool = service.cluster.node_ids()
        direct = service.schedule(app_name, CbesScheduler(), pool, seed=5)
        remote = client.schedule(app_name, scheduler="cs", pool=pool, seed=5)
        assert remote["mapping"] == list(direct.mapping.as_tuple())
        assert remote["predicted_time"] == direct.predicted_time
        assert remote["scheduler"] == "CS"
        assert remote["evaluations"] > 0

    def test_predict_matches_direct_call(self, client, service_and_app):
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()[:3]
        direct = service.evaluator(app_name).predict(TaskMapping(nodes))
        remote = client.predict(app_name, nodes)
        assert remote["execution_time"] == direct.execution_time
        assert remote["critical_rank"] == direct.critical_rank
        assert [p["node"] for p in remote["processes"]] == nodes

    def test_compare_ranks_fastest_first(self, client, service_and_app):
        service, app_name = service_and_app
        ids = service.cluster.node_ids()
        ranked = client.compare(app_name, [ids[:3], ids[3:6]])
        assert len(ranked) == 2
        assert ranked[0]["execution_time"] <= ranked[1]["execution_time"]

    def test_job_document_lifecycle_fields(self, client, service_and_app):
        service, app_name = service_and_app
        job = client.submit("predict", app=app_name, nodes=service.cluster.node_ids()[:3])
        assert job["state"] in ("queued", "running")
        assert job["request_id"]
        done = client.wait(job["id"], timeout_s=30)
        assert done["started_at"] >= done["created_at"]
        assert done["finished_at"] >= done["started_at"]
        assert done["id"] in {j["id"] for j in client.jobs()}

    def test_runtime_failure_becomes_failed_job(self, client, service_and_app):
        """A pool too small for the profile fails the job, not the daemon."""
        service, app_name = service_and_app
        job = client.submit("schedule", app=app_name, pool=service.cluster.node_ids()[:2])
        with pytest.raises(JobFailed, match="cannot host"):
            client.wait(job["id"], timeout_s=30)
        health = client.healthz()
        assert health["status"] == "ok"  # daemon survived

    def test_schedule_context_is_cached_and_reused(self, server, client, service_and_app):
        service, app_name = service_and_app
        client.schedule(app_name, scheduler="cs", seed=1)
        runner = server.daemon.runner
        with runner._ctx_lock:
            contexts = dict(runner._contexts)
        assert contexts, "schedule job should cache an EvaluationContext"
        fingerprint = service.snapshot().fingerprint()
        assert all(ctx.snapshot_fingerprint == fingerprint for ctx in contexts.values())


    def test_serving_snapshot_is_hashed_once_per_generation(self, service_and_app):
        """The runner keeps ``(snapshot, fingerprint)`` as one value: the
        digest every document reports, computed when the snapshot was
        adopted and not again per job — it goes down with the snapshot,
        so no job kind, context-cache hit or miss, hashes the cluster."""
        service, app_name = service_and_app
        with DaemonThread(service, workers=1, queue_limit=8) as srv:
            client = srv.client()
            runner = srv.daemon.runner
            snapshot, fingerprint = runner.serving
            assert snapshot is runner.snapshot and fingerprint == snapshot.fingerprint()
            assert client.healthz()["snapshot_fingerprint"] == fingerprint
            callers = []
            hashing = type(snapshot).fingerprint

            def counted(self):
                callers.append(Path(sys._getframe(1).f_code.co_filename).name)
                return hashing(self)

            with mock.patch.object(type(snapshot), "fingerprint", counted):
                nodes = service.cluster.node_ids()[:3]
                assert not runner._contexts  # the first quote is the cache miss
                job = client.wait(client.submit("predict", app=app_name, nodes=nodes)["id"])
                assert job["result"]["snapshot_fingerprint"] == fingerprint
                assert len(runner._contexts) == 1
                assert callers == []  # the build is stamped with the digest held
                ranked = client.wait(
                    client.submit("compare", app=app_name, mappings=[nodes, nodes[::-1]])["id"]
                )
                assert ranked["result"]["snapshot_fingerprint"] == fingerprint
                assert callers == []
                scheduled = client.schedule(app_name, scheduler="cs", seed=1)
                assert scheduled["snapshot_fingerprint"] == fingerprint
                assert callers == []  # nor does the search re-key its context
                # Same content: not adopted, the pair is untouched.
                assert runner.adopt_snapshot(service.snapshot().freeze()) is False
                assert runner.serving[0] is snapshot and runner.serving[1] == fingerprint


class TestQuotesReadTheKernel:
    """``predict`` / ``compare`` jobs are priced off the cached
    ``EvaluationContext`` and answer what ``evaluator.predict()`` answers."""

    @pytest.fixture(scope="class")
    def exact(self):
        """Identical nodes under the exact latency model: disjoint
        mappings tie to the last bit, so a ranking's tie order shows."""
        service, app_name = make_service()
        service.cluster.use_exact_latency_model()
        return service, app_name

    def test_result_documents_equal_the_reference(self, exact):
        service, app_name = exact
        ids = service.cluster.node_ids()
        options = {"use_lambda": False}
        with DaemonThread(service, workers=1, queue_limit=8) as srv:
            client = srv.client()
            fingerprint = srv.daemon.runner.serving[1]
            evaluator = service.evaluator(app_name, options=options_from_dict(options))
            quoted = client.predict(app_name, ids[:3], options=options)
            assert quoted == {
                **prediction_to_dict(evaluator.predict(TaskMapping(ids[:3]))),
                "snapshot_fingerprint": fingerprint,
            }
            # ids[:3], ids[3:] and the repeat tie; the co-located one is slowest.
            candidates = [[ids[0]] * 3, ids[3:], ids[:3], [ids[1], ids[0], ids[0]], ids[3:]]
            reference = evaluator.compare([TaskMapping(m) for m in candidates])
            times = [p.execution_time for p in reference]
            assert times[0] == times[1] == times[2] < times[3] < times[4]
            assert [list(p.mapping) for p in reference[:3]] == [ids[3:], ids[:3], ids[3:]]
            done = client.wait(
                client.submit("compare", app=app_name, mappings=candidates, options=options)["id"]
            )
            assert done["result"] == {
                "ranked": [prediction_to_dict(p) for p in reference],
                "snapshot_fingerprint": fingerprint,
            }
            assert metric_value(client, "cbes_evaluations_total") == 1 + len(candidates)

    def test_quote_document_finds_the_critical_process_once(self):
        """One ``max`` pass writes what the three passes wrote, ties included."""

        def three_passes(prediction: MappingPrediction) -> dict:
            critical = prediction.breakdown(prediction.critical_rank)
            return {
                "mapping": list(prediction.mapping.as_tuple()),
                "execution_time": prediction.execution_time,
                "critical_rank": prediction.critical_rank,
                "critical_breakdown": {
                    "node": critical.node_id,
                    "computation": critical.computation,
                    "communication": critical.communication,
                },
                "processes": [
                    {
                        "rank": p.rank,
                        "node": p.node_id,
                        "computation": p.computation,
                        "communication": p.communication,
                    }
                    for p in prediction.processes
                ],
            }

        rng = random.Random(23)
        for case in range(200):
            nprocs = rng.randint(1, 9)
            # Quarter-steps: sums are exact, so distinct (R, C) splits tie.
            totals = [(rng.randint(0, 8) / 4, rng.randint(0, 8) / 4) for _ in range(nprocs)]
            if case % 2:
                totals = [(r + rng.random(), c) for r, c in totals]
            nodes = [f"n{rank}" for rank in range(nprocs)]
            prediction = MappingPrediction(
                TaskMapping(nodes),
                tuple(ProcessPrediction(i, nodes[i], r, c) for i, (r, c) in enumerate(totals)),
            )
            assert prediction_to_dict(prediction) == three_passes(prediction)
            ties = [p.rank for p in prediction.processes if p.total == prediction.execution_time]
            assert prediction.critical_rank == ties[0]

    def test_one_context_serves_every_quote_of_a_generation(self, service_and_app):
        service, app_name = service_and_app
        ids = service.cluster.node_ids()
        built = []
        build = EvaluationContext.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            build(self, *args, **kwargs)

        def events(client) -> dict[str, float]:
            return {
                event: metric_value(
                    client, "cbes_context_cache_events_total", f'{{event="{event}"}}'
                )
                for event in ("hit", "miss", "evicted")
            }

        docs = [
            {"kind": "predict", "app": app_name, "nodes": [ids[(i + k) % 6] for k in range(3)]}
            for i in range(64)
        ]
        with (
            mock.patch.object(EvaluationContext, "__init__", counted),
            DaemonThread(service, workers=2, queue_limit=64) as srv,
        ):
            client = srv.client()
            client.wait_many([job["id"] for job in client.submit_batch(docs)], timeout_s=60.0)
            assert len(built) == 1
            assert events(client) == {"hit": 63, "miss": 1, "evicted": 0}
            # A refresh in between evicts, and the next quote rebuilds once.
            runner = srv.daemon.runner
            service.cluster.node(ids[0]).set_background_load(1.5)
            try:
                assert runner.adopt_snapshot(runner.poll_snapshot()) is True
                assert not runner._contexts
                client.wait_many([job["id"] for job in client.submit_batch(docs[:8])])
            finally:
                service.cluster.node(ids[0]).set_background_load(0.0)
            assert len(built) == 2
            old, new = (context.snapshot_fingerprint for context in built)
            assert new == runner.serving[1] != old
            assert events(client) == {"hit": 70, "miss": 2, "evicted": 1}

    def test_invalid_mapping_fails_the_job_with_the_reference_error(self, service_and_app):
        service, app_name = service_and_app
        ids = service.cluster.node_ids()
        evaluator = service.evaluator(app_name)
        with DaemonThread(service, workers=1, queue_limit=8) as srv:
            client = srv.client()
            for kind, payload, bad in (
                ("predict", {"nodes": ids[:2]}, ids[:2]),
                ("compare", {"mappings": [ids[:3], ids[:4]]}, ids[:4]),
            ):
                with pytest.raises(InvalidMappingError) as want:
                    evaluator.predict(TaskMapping(bad))
                job = client.submit(kind, app=app_name, **payload)
                with pytest.raises(JobFailed):
                    client.wait(job["id"], timeout_s=30)
                assert srv.daemon.store.get(job["id"]).error == (
                    f"InvalidMappingError: {want.value}"
                )
            # An unknown node is refused at submit (400); should a payload
            # reach the executor anyway, it raises what predict() raises.
            stray = [*ids[:2], "mars-1"]
            with pytest.raises(InvalidMappingError) as want:
                evaluator.predict(TaskMapping(stray))
            payload = {"app": app_name, "seed": 0, "options": None, "nodes": stray}
            job = Job("stray", "predict", payload)
            with pytest.raises(InvalidMappingError) as got:
                srv.daemon.runner.execute(job)
            assert str(got.value) == str(want.value) == "mapping uses unknown node 'mars-1'"

    def test_no_reference_loop_under_server(self):
        """One pricing path: nothing under ``src/repro/server/`` calls an
        evaluator's ``predict`` / ``compare`` (the client's methods of the
        same names submit jobs; they are called on clients, not here)."""
        root = Path(repro.server.__file__).resolve().parent
        calls = []
        for path in sorted(root.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("predict", "compare")
                ):
                    calls.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
        assert calls == []


class TestBatchWait:
    def test_sweeps_cost_the_batch_not_the_store(self, service_and_app):
        """Each sweep asks for the pending ids only; a done document crosses once."""
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()[:3]
        with DaemonThread(service, workers=1, queue_limit=16) as srv:
            store = srv.daemon.store
            for _ in range(600):
                old = store.create("predict", {"app": app_name})
                store.mark_running(old.id)
                store.mark_done(old.id, {"execution_time": 1.0})
            client = srv.client()
            accepted = client.submit_batch(
                [{"kind": "predict", "app": app_name, "nodes": nodes}] * 12
            )
            ids = [job["id"] for job in accepted]
            sweeps: list[tuple[list[str], list[dict]]] = []
            lookup = client.jobs

            def recording(*, ids):
                found = lookup(ids=ids)
                sweeps.append((list(ids), found))
                return found

            client.jobs = recording
            done = client.wait_many(ids, timeout_s=60.0, poll_interval_s=0.002)
            assert [job["id"] for job in done] == ids
            assert len(store) == 612
            served_done = [
                job["id"] for _, found in sweeps for job in found if job["state"] == "done"
            ]
            assert sorted(served_done) == sorted(ids)  # each exactly once
            still_pending = set(ids)
            for asked, found in sweeps:
                assert set(asked) == still_pending  # only what is still pending
                assert len(found) <= len(asked)
                still_pending -= {job["id"] for job in found if job["state"] == "done"}

    def test_duplicate_ids_wait_once_and_answer_in_input_order(self, client, service_and_app):
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()[:3]
        a, b = client.submit_batch([{"kind": "predict", "app": app_name, "nodes": nodes}] * 2)
        done = client.wait_many([b["id"], a["id"], b["id"]], timeout_s=60.0)
        assert [job["id"] for job in done] == [b["id"], a["id"], b["id"]]
        assert client.wait_many([], timeout_s=1.0) == []


class TestPollRamp:
    def test_sleeps_double_from_2ms_up_to_the_interval(self, monkeypatch):
        from repro.server import client as client_module

        slept: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", slept.append)
        polls = iter(["queued"] * 7 + ["done"])
        waiter = client_module.CbesClient()
        waiter.job = lambda job_id: {"id": job_id, "state": next(polls)}
        assert waiter.wait("j1", poll_interval_s=0.05)["state"] == "done"
        assert slept == [0.002, 0.004, 0.008, 0.016, 0.032, 0.05, 0.05]

    @pytest.mark.parametrize("interval", [0.002, 0.001])
    def test_short_intervals_stay_flat(self, monkeypatch, interval):
        from repro.server import client as client_module

        slept: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", slept.append)
        sweeps = iter([[]] * 4 + [[{"id": "j1", "state": "done"}]])
        waiter = client_module.CbesClient()
        waiter.jobs = lambda *, ids: next(sweeps)
        waiter.job = lambda job_id: {"id": job_id, "state": "queued"}
        assert len(waiter.wait_many(["j1"], poll_interval_s=interval)) == 1
        assert slept == [interval] * 4

    def test_never_sleeps_past_the_deadline(self):
        from repro.server.client import CbesClient

        waiter = CbesClient()
        waiter.job = lambda job_id: {"id": job_id, "state": "queued"}
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            waiter.wait("j1", timeout_s=0.05, poll_interval_s=30.0)
        assert time.monotonic() - started < 1.0


class TestBackpressure:
    def test_full_queue_gets_429_with_retry_after(self):
        service, app_name = make_service()
        release = threading.Event()
        running = threading.Event()

        def blocked_execute(job):
            running.set()
            if not release.wait(timeout=30):
                raise RuntimeError("test never released the worker")
            return {"ok": True}

        srv = DaemonThread(service, workers=1, queue_limit=1)
        srv.daemon.runner.execute = blocked_execute
        try:
            with srv:
                client = srv.client()
                nodes = service.cluster.node_ids()[:3]
                first = client.submit("predict", app=app_name, nodes=nodes)
                assert running.wait(timeout=10), "worker never picked up the first job"
                second = client.submit("predict", app=app_name, nodes=nodes)  # fills the queue
                with pytest.raises(BackpressureError) as excinfo:
                    client.submit("predict", app=app_name, nodes=nodes)
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after_s > 0
                # The rejected submission left nothing behind.
                assert {j["id"] for j in client.jobs()} == {first["id"], second["id"]}
                release.set()
                assert client.wait(first["id"], timeout_s=30)["result"] == {"ok": True}
                assert client.wait(second["id"], timeout_s=30)["result"] == {"ok": True}
        finally:
            release.set()


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_jobs(self):
        """request_shutdown (what SIGTERM triggers) finishes accepted work."""
        service, app_name = make_service()

        def slow_execute(job):
            time.sleep(0.2)
            return {"ok": True}

        srv = DaemonThread(service, workers=1, queue_limit=4)
        srv.daemon.runner.execute = slow_execute
        with srv:
            client = srv.client()
            nodes = service.cluster.node_ids()[:3]
            first = client.submit("predict", app=app_name, nodes=nodes)
            second = client.submit("predict", app=app_name, nodes=nodes)
            srv.shutdown()  # request + drain + join, like SIGTERM
            store = srv.daemon.store
            assert store.get(first["id"]).state is JobState.DONE
            assert store.get(second["id"]).state is JobState.DONE
            with pytest.raises(OSError):
                client.healthz()  # listener is gone


class TestSnapshotRefresh:
    def test_refresh_sees_load_and_invalidates_contexts(self):
        service, app_name = make_service()
        service.start_monitoring(forecaster="last-value", sensor_noise=0.0, seed=0)
        loaded_node = service.cluster.node_ids()[0]
        try:
            with DaemonThread(service, workers=1, queue_limit=8, refresh_interval_s=0.05) as srv:
                client = srv.client()
                first = client.schedule(app_name, scheduler="cs", seed=3)
                service.cluster.node(loaded_node).set_background_load(1.5)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    snapshot = client.snapshot()
                    if snapshot["nodes"][loaded_node]["background_load"] > 1.0:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("refresh loop never picked up the injected load")
                assert client.healthz()["snapshot_refreshes"] >= 1
                # Contexts built against the pre-load snapshot are gone.
                runner = srv.daemon.runner
                with runner._ctx_lock:
                    stale = [
                        ctx
                        for ctx in runner._contexts.values()
                        if ctx.snapshot_fingerprint == first["snapshot_fingerprint"]
                    ]
                assert not stale
                # New work is served against the fresher snapshot.
                second = client.schedule(app_name, scheduler="cs", seed=3)
                assert second["snapshot_fingerprint"] != first["snapshot_fingerprint"]
        finally:
            service.cluster.node(loaded_node).set_background_load(0.0)

    def test_monitor_restarted_after_refresh_failure(self):
        service, _ = make_service()
        monitor_kwargs = {"forecaster": "last-value", "sensor_noise": 0.0, "seed": 0}
        original = service.start_monitoring(**monitor_kwargs)
        srv = DaemonThread(
            service,
            workers=1,
            queue_limit=2,
            refresh_interval_s=0.05,
            monitor_kwargs=monitor_kwargs,
        )

        def broken_poll():
            raise RuntimeError("sensor exploded")

        srv.daemon.runner.poll_snapshot = broken_poll
        with srv:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and service.monitor is original:
                time.sleep(0.05)
            assert service.is_monitoring
            assert service.monitor is not original, "monitor was not restarted"


class TestServeSubprocess:
    """The real thing: `repro serve` in a subprocess, killed with SIGTERM."""

    @pytest.fixture(scope="class")
    def db_dir(self, tmp_path_factory):
        from repro.cli import main

        db = str(tmp_path_factory.mktemp("cbes-serve-db"))
        assert main(["--db", db, "calibrate"]) == 0
        assert main(["--db", db, "profile", "lu.S", "--nprocs", "4"]) == 0
        return db

    def test_serve_submit_sigterm_roundtrip(self, db_dir):
        from repro.cli import main

        repo_root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "--db", db_dir,
                "serve", "--port", "0", "--workers", "1", "--log-level", "warning",
            ],
            cwd=repo_root,
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving on http://"), (banner, proc.stderr.read() if proc.poll() is not None else "")
            port = int(banner.rstrip().rsplit(":", 1)[1])
            rc = main(
                ["submit", "lu.S", "--port", str(port), "--scheduler", "cs", "--arch", "alpha-533"]
            )
            assert rc == 0
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

"""Integration tests for the scheduling daemon.

An in-process daemon (dedicated thread + event loop, ephemeral port) is
exercised through the blocking ``repro.server.client`` — the same
protocol round-trip an external scheduler client would make: submit,
poll, backpressure, drain, and snapshot refresh.
"""

import ast
import math
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest

import repro.server
from repro._util import encode_json
from repro.cluster import single_switch
from repro.core import CBES, MappingPrediction, ProcessPrediction, TaskMapping
from repro.core.errors import InvalidMappingError
from repro.core.fast_eval import EvaluationContext
from repro.schedulers import CbesScheduler
from repro.server import BackpressureError, DaemonThread, JobFailed, JobState, ServerError
from repro.server.execution import JobRunner
from repro.server.jobs import Job
from repro.server.serialize import options_from_dict, prediction_json, prediction_to_dict
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
        contexts = server.daemon.runner.serving.contexts
        assert contexts, "schedule job should cache an EvaluationContext"
        fingerprint = service.snapshot().fingerprint()
        assert all(ctx.snapshot_fingerprint == fingerprint for ctx in contexts.values())


    def test_serving_snapshot_is_hashed_once_per_generation(self):
        """The runner's serving generation holds the snapshot and its
        fingerprint: the digest every document reports, computed when the
        snapshot was adopted and not again per job — it goes down with the
        snapshot, so no job kind, context-cache hit or miss, hashes the
        cluster.  Its own service: the module's shares its generation."""
        service, app_name = make_service()
        with DaemonThread(service, workers=1, queue_limit=8) as srv:
            client = srv.client()
            runner = srv.daemon.runner
            snapshot, fingerprint = runner.serving.snapshot, runner.serving.fingerprint
            assert snapshot is runner.snapshot and fingerprint == snapshot.fingerprint()
            assert client.healthz()["snapshot_fingerprint"] == fingerprint
            callers = []
            hashing = type(snapshot).fingerprint

            def counted(self):
                callers.append(Path(sys._getframe(1).f_code.co_filename).name)
                return hashing(self)

            with mock.patch.object(type(snapshot), "fingerprint", counted):
                nodes = service.cluster.node_ids()[:3]
                assert not runner.serving.contexts  # the first quote is the cache miss
                job = client.wait(client.submit("predict", app=app_name, nodes=nodes)["id"])
                assert job["result"]["snapshot_fingerprint"] == fingerprint
                assert len(runner.serving.contexts) == 1
                assert callers == []  # the build is stamped with the digest held
                ranked = client.wait(
                    client.submit("compare", app=app_name, mappings=[nodes, nodes[::-1]])["id"]
                )
                assert ranked["result"]["snapshot_fingerprint"] == fingerprint
                assert callers == []
                scheduled = client.schedule(app_name, scheduler="cs", seed=1)
                assert scheduled["snapshot_fingerprint"] == fingerprint
                assert callers == []  # nor does the search re-key its context
                # Same content: not adopted, the generation is untouched.
                assert runner.adopt_snapshot(service.snapshot().freeze()) is False
                assert runner.serving.snapshot is snapshot
                assert runner.serving.fingerprint == fingerprint


class TestSharedGeneration:
    """A daemon and in-process ``CBES.schedule()`` calls on one service
    share its context cache, but the daemon serves the generation it adopted."""

    def test_the_daemon_keeps_its_generation_under_in_process_calls(self):
        service, app_name = make_service()
        ids = service.cluster.node_ids()
        with DaemonThread(service, workers=1, queue_limit=8, refresh_interval_s=0) as srv:
            client = srv.client()
            adopted = client.healthz()["snapshot_fingerprint"]
            service.cluster.node(ids[0]).set_background_load(1.5)
            try:
                assert service.snapshot().fingerprint() != adopted
                service.schedule(app_name, CbesScheduler(), ids, seed=1)
            finally:
                service.cluster.node(ids[0]).set_background_load(0.0)
            assert client.healthz()["snapshot_fingerprint"] == adopted
            assert client.predict(app_name, ids[:3])["snapshot_fingerprint"] == adopted
            assert client.schedule(app_name, scheduler="cs", seed=1)["snapshot_fingerprint"] == adopted

    def test_a_refresh_keeps_its_generation_after_an_in_process_call(self, monkeypatch):
        """With refresh on, a transient load an in-process call adopted costs
        the daemon no refresh and no eviction once the load is restored."""
        service, app_name = make_service()
        ids = service.cluster.node_ids()
        gate, polls, poll = threading.Lock(), [], JobRunner.poll_snapshot

        def gated(runner):  # no refresh polls the transient load
            with gate:
                polls.append(None)
                return poll(runner)

        monkeypatch.setattr(JobRunner, "poll_snapshot", gated)
        with DaemonThread(service, workers=1, queue_limit=8, refresh_interval_s=0.02) as srv:
            client = srv.client()
            adopted = client.predict(app_name, ids[:3])["snapshot_fingerprint"]
            with gate:
                service.cluster.node(ids[0]).set_background_load(1.5)
                service.schedule(app_name, CbesScheduler(), ids, seed=1)
                service.cluster.node(ids[0]).set_background_load(0.0)
                seen = len(polls)
            # Refreshes run one after another: a second poll means the
            # first one after the restore has been adopted.
            deadline = time.monotonic() + 30
            while len(polls) < seen + 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(polls) >= seen + 2
            assert srv.daemon.runner.snapshot_refreshes == 0
            assert client.predict(app_name, ids[:3])["snapshot_fingerprint"] == adopted
            events = {
                event: metric_value(
                    client, "cbes_context_cache_events_total", f'{{event="{event}"}}'
                )
                for event in ("hit", "miss", "evicted")
            }
        assert events == {"hit": 1, "miss": 1, "evicted": 0}

    def test_a_daemon_started_after_an_in_process_call_hits_its_context(self):
        service, app_name = make_service()
        ids = service.cluster.node_ids()
        direct = service.schedule(app_name, CbesScheduler(), ids, seed=1)
        with DaemonThread(service, workers=1, queue_limit=8, refresh_interval_s=0) as srv:
            client = srv.client()
            remote = client.schedule(app_name, scheduler="cs", seed=1)
            events = {
                event: metric_value(
                    client, "cbes_context_cache_events_total", f'{{event="{event}"}}'
                )
                for event in ("hit", "miss")
            }
        assert events == {"hit": 1, "miss": 0}
        assert remote["mapping"] == list(direct.mapping.as_tuple())
        assert remote["predicted_time"] == direct.predicted_time


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
            fingerprint = srv.daemon.runner.serving.fingerprint
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

    def test_quote_bytes_are_the_encoders(self):
        """``prediction_json`` writes what ``encode_json`` writes of the document,
        for floats the encoder spells its own way and node ids it escapes."""
        rng = random.Random(43)
        odd = [0.0, -0.0, 1e-320, 1e300, 2.5e16, 1 / 3, math.inf, -math.inf, math.nan]
        names = ["n0", 'a"b', "caf\u00e9", "tab\t", "\u2028", "\U0001f600"]
        for case in range(300):
            nprocs = rng.randint(1, 9)
            nodes = [rng.choice(names) + str(rank) for rank in range(nprocs)]
            pick = (lambda: rng.choice(odd)) if case % 3 == 0 else rng.random
            r_arr = [pick() for _ in range(nprocs)]
            c_arr = [pick() for _ in range(nprocs)]
            totals = [r + c for r, c in zip(r_arr, c_arr)]
            critical = totals.index(max(totals))
            doc = {
                "mapping": nodes,
                "execution_time": totals[critical],
                "critical_rank": critical,
                "critical_breakdown": {"node": nodes[critical], "computation": r_arr[critical],
                                       "communication": c_arr[critical]},
                "processes": [
                    {"rank": rank, "node": node, "computation": r, "communication": c}
                    for rank, (node, r, c) in enumerate(zip(nodes, r_arr, c_arr))
                ],
            }
            execution_time, raw = prediction_json(nodes, r_arr, c_arr)
            assert raw == encode_json(doc)
            assert repr(execution_time) == repr(totals[critical])

    def test_one_context_serves_every_quote_of_a_generation(self):
        # Its own service: the module's generation holds contexts already.
        service, app_name = make_service()
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
                assert not runner.serving.contexts
                client.wait_many([job["id"] for job in client.submit_batch(docs[:8])])
            finally:
                service.cluster.node(ids[0]).set_background_load(0.0)
            assert len(built) == 2
            old, new = (context.snapshot_fingerprint for context in built)
            assert new == runner.serving.fingerprint != old
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


class TestHeldLookupStress:
    def test_no_hold_misses_the_end_of_its_job(self, service_and_app):
        """Four job threads on fewer cores, a thread switch every microsecond:
        a held lookup whose job ends between its first test and its wait
        would sit out its whole ``wait_s``.  None may."""
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()[:3]
        doc = {"kind": "predict", "app": app_name, "nodes": nodes}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DaemonThread(service, workers=4, queue_limit=64) as srv, srv.client() as client:
                for _ in range(15):
                    ids = [job["id"] for job in client.submit_batch([doc] * 4)]
                    started = time.monotonic()
                    point = client.job(ids[0], wait_s=8.0)
                    lookup = client.jobs(ids=ids, wait_s=8.0)
                    assert time.monotonic() - started < 4.0
                    assert point["state"] == "done"
                    assert [job["state"] for job in lookup] == ["done"] * 4
                assert len(srv.daemon.runner.holds) == 0
        finally:
            sys.setswitchinterval(interval)


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

            def recording(*, ids, wait_s):
                assert 0 <= wait_s <= 0.002
                found = lookup(ids=ids, wait_s=wait_s)
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


class FakeTime:
    """A clock for the client's waits: ``sleep`` and answered asks advance it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.slept: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


class TestPolling:
    """``wait`` / ``wait_many`` ask with ``wait_s`` instead of sleeping between polls."""

    @pytest.fixture
    def clock(self, monkeypatch):
        from repro.server import client as client_module

        clock = FakeTime()
        monkeypatch.setattr(client_module, "time", clock)
        return clock

    @staticmethod
    def waiter(clock, states, *, answer_after=None, **kwargs):
        """A client whose ``job`` / ``jobs`` answer *states* in turn, each after
        *answer_after* seconds (default: the whole ``wait_s``), logging every ask."""
        from repro.server.client import CbesClient

        client = CbesClient(**kwargs)
        client.asks = []
        answers = iter(states)

        def job(job_id, *, wait_s=None):
            client.asks.append((clock.now, wait_s))
            clock.now += wait_s if answer_after is None else answer_after
            return {"id": job_id, "state": next(answers)}

        def jobs(*, ids, wait_s=None):
            return [job(job_id, wait_s=wait_s) for job_id in ids]

        client.job, client.jobs = job, jobs
        return client

    @pytest.mark.parametrize("method", ["wait", "wait_many"])
    def test_wait_s_goes_through_job_and_jobs(self, clock, method):
        client = self.waiter(clock, ["queued", "running", "done"], timeout_s=0.08)
        target = "j1" if method == "wait" else ["j1"]
        getattr(client, method)(target, timeout_s=60.0, poll_interval_s=0.05)
        # min(poll interval, time left, half the socket timeout): 0.08 / 2
        assert [wait_s for _, wait_s in client.asks] == [0.04] * 3
        client = self.waiter(clock, ["queued", "done"])
        getattr(client, method)(target, timeout_s=60.0, poll_interval_s=0.05)
        assert [wait_s for _, wait_s in client.asks] == [0.05] * 2

    @pytest.mark.parametrize("method", ["wait", "wait_many"])
    @pytest.mark.parametrize("answer_after", [0.0, 0.003, None])
    def test_a_pending_job_is_asked_again_no_sooner_than_the_interval(
        self, clock, method, answer_after
    ):
        client = self.waiter(clock, ["queued"] * 6 + ["done"], answer_after=answer_after)
        target = "j1" if method == "wait" else ["j1"]
        getattr(client, method)(target, timeout_s=60.0, poll_interval_s=0.01)
        times = [asked for asked, _ in client.asks]
        assert len(times) == 7
        assert all(b - a >= 0.01 - 1e-12 for a, b in zip(times, times[1:]))
        if answer_after is None:  # a hold that runs out is the whole interval: no sleep
            assert clock.slept == [0.0] * 6

    @pytest.mark.parametrize("method", ["wait", "wait_many"])
    @pytest.mark.parametrize("answer_after", [0.0, None])
    def test_never_waits_past_its_deadline(self, clock, method, answer_after):
        client = self.waiter(clock, ["queued"] * 100, answer_after=answer_after)
        target = "j1" if method == "wait" else ["j1"]
        with pytest.raises(TimeoutError):
            getattr(client, method)(target, timeout_s=0.25, poll_interval_s=0.1)
        assert clock.now == pytest.approx(0.25)
        assert all(asked + wait_s <= 0.25 + 1e-12 for asked, wait_s in client.asks)

    def test_never_sleeps_past_the_deadline(self):
        from repro.server.client import CbesClient

        waiter = CbesClient()
        waiter.job = lambda job_id, wait_s=None: {"id": job_id, "state": "queued"}
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            waiter.wait("j1", timeout_s=0.05, poll_interval_s=30.0)
        assert time.monotonic() - started < 1.0


class TestWaitArguments:
    """A timeout or poll interval that is not a finite number > 0 is refused
    before any request: a NaN deadline would never pass."""

    BAD = [0, -1.0, float("nan"), float("inf")]

    @staticmethod
    def offline_client():
        from repro.server.client import CbesClient

        client = CbesClient()

        def no_request(*args, **kwargs):
            raise AssertionError("a refused argument must not reach the daemon")

        client._request = no_request
        return client

    @pytest.mark.parametrize("bad", BAD)
    def test_client_timeout(self, bad):
        from repro.server.client import CbesClient

        with pytest.raises(ValueError, match="timeout_s"):
            CbesClient(timeout_s=bad)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("argument", ["timeout_s", "poll_interval_s"])
    @pytest.mark.parametrize(
        "method, target", [("wait", "j1"), ("wait_many", ["j1"]), ("wait_decision", "w1")]
    )
    def test_waits(self, method, target, argument, bad):
        with pytest.raises(ValueError, match=argument):
            getattr(self.offline_client(), method)(target, **{argument: bad})


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


def blocking_execute():
    """An ``execute`` that blocks until *release* is set, and its two events."""
    running, release = threading.Event(), threading.Event()

    def execute(job):
        running.set()
        if not release.wait(timeout=30):
            raise RuntimeError("test never released the worker")
        return {"ok": True}

    return execute, running, release


def record_runs(runner) -> list[list[str]]:
    """Patch *runner* so every run a worker thread takes records its job ids."""
    runs: list[list[str]] = []
    run_on_thread = runner._run

    def recording(run):
        runs.append([job.id for job in run])
        return run_on_thread(run)

    runner._run = recording
    return runs


class TestRuns:
    """A worker thread takes the quotes queued together as one run."""

    def test_a_batch_costs_one_hand_off_not_one_per_job(self, service_and_app):
        service, app_name = service_and_app
        ids = service.cluster.node_ids()
        entries = [{"kind": "predict", "app": app_name, "nodes": ids[:3]}] * 24 + [
            {"kind": "compare", "app": app_name, "mappings": [ids[:3], ids[3:6]]}
        ] * 8
        with DaemonThread(service, workers=2, queue_limit=32) as srv, srv.client() as client:
            runs = record_runs(srv.daemon.runner)
            accepted = [job["id"] for job in client.submit_batch(entries)]
            done = client.wait_many(accepted, timeout_s=60.0)
        assert [job["state"] for job in done] == ["done"] * 32
        assert runs == [accepted]  # queued in one go, taken in one go

    def test_a_schedule_job_runs_alone(self, service_and_app):
        """Quotes queued behind a search are a run of their own on the other worker."""
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()[:3]
        release = threading.Event()

        def execute(job):
            if job.kind == "schedule" and not release.wait(timeout=30):
                raise RuntimeError("test never released the search")
            return {"kind": job.kind}

        quote = {"kind": "predict", "app": app_name, "nodes": nodes}
        entries = [quote] * 4 + [{"kind": "schedule", "app": app_name}] + [quote] * 4
        srv = DaemonThread(service, workers=2, queue_limit=16)
        srv.daemon.runner.execute = execute
        try:
            with srv, srv.client() as client:
                runs = record_runs(srv.daemon.runner)
                accepted = [job["id"] for job in client.submit_batch(entries)]
                search = accepted[4]
                quotes = client.wait_many(accepted[:4] + accepted[5:], timeout_s=10.0)
                assert client.job(search)["state"] == "running"
                release.set()
                finished = client.wait(search, timeout_s=30.0)["finished_at"]
        finally:
            release.set()
        assert [search] in runs
        assert all(search not in run for run in runs if len(run) > 1)
        assert accepted[:4] in runs and accepted[5:] in runs
        assert all(job["finished_at"] <= finished for job in quotes)

    def test_jobs_taken_into_a_run_still_count_as_queued(self, service_and_app):
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()[:3]
        quote = {"kind": "predict", "app": app_name, "nodes": nodes}
        srv = DaemonThread(service, workers=1, queue_limit=4)
        srv.daemon.runner.execute, running, release = blocking_execute()
        try:
            with srv, srv.client() as client:
                runs = record_runs(srv.daemon.runner)
                first = [job["id"] for job in client.submit_batch([quote] * 4)]
                assert running.wait(timeout=10), "worker never picked up the run"
                assert runs == [first]
                assert [client.job(i)["state"] for i in first] == ["running"] + ["queued"] * 3
                assert srv.daemon.runner.queue_depth == 3
                assert client.healthz()["queue_depth"] == 3
                assert metric_value(client, "cbes_queue_depth") == 3
                with pytest.raises(BackpressureError) as excinfo:
                    client.submit_batch([quote] * 2)
                assert excinfo.value.status == 429
                last = client.submit_batch([quote])[0]["id"]
                release.set()
                done = client.wait_many([*first, last], timeout_s=30.0)
                assert [job["result"] for job in done] == [{"ok": True}] * 5
                assert client.healthz()["queue_depth"] == 0
        finally:
            release.set()

    def test_a_held_lookup_of_a_run_is_answered_once(self, service_and_app):
        """The jobs of a run turn final together: a held ``?ids=`` lookup of
        them is woken once, and answered with every job ``done``."""
        service, app_name = service_and_app
        quote = {"kind": "predict", "app": app_name, "nodes": service.cluster.node_ids()[:3]}
        srv = DaemonThread(service, workers=1, queue_limit=8)
        runner = srv.daemon.runner
        runner.execute, running, release = blocking_execute()
        holds, wakeups = runner.holds, []
        release_ready = holds._release_ready

        def waking() -> None:
            wakeups.append(len(holds))
            release_ready()

        holds._release_ready = waking
        try:
            with srv, srv.client() as client, srv.client() as holder:
                ids = [job["id"] for job in client.submit_batch([quote] * 3)]
                assert running.wait(timeout=10), "worker never picked up the run"
                with ThreadPoolExecutor(1) as pool:
                    answer = pool.submit(holder.jobs, ids=ids, wait_s=10.0)
                    deadline = time.monotonic() + 10
                    while not len(holds) and time.monotonic() < deadline:
                        time.sleep(0.001)
                    assert len(holds) == 1
                    release.set()
                    jobs = answer.result(timeout=30)
        finally:
            release.set()
        assert [job["state"] for job in jobs] == ["done"] * 3
        assert wakeups == [1]

    def test_jobs_run_on_plain_threads_with_no_loop_task_each(self, service_and_app):
        service, _ = service_and_app
        with DaemonThread(service, workers=3, refresh_interval_s=0) as srv:
            names = {thread.name for thread in threading.enumerate()}
            assert {"cbes-job-0", "cbes-job-1", "cbes-job-2"} <= names
            assert srv.daemon.runner._tasks == []

    @staticmethod
    def bare_runner(service, workers: int):
        """A job runner and its fresh in-memory store, without the HTTP layer."""
        from repro import telemetry
        from repro.server.execution import JobRunner
        from repro.server.jobs import JobStore

        store = JobStore()
        runner = JobRunner(
            service, store, workers=workers, queue_limit=8, refresh_interval_s=0,
            monitor_kwargs=None, metrics=telemetry.MetricsRegistry(), tracer=telemetry.Tracer(),
        )
        return runner, store

    def test_concurrent_runs_lose_no_count(self, service_and_app):
        """More worker threads than cores, switching often: every job still
        leaves the queued count exactly once."""
        import asyncio

        service, app_name = service_and_app
        runner, store = self.bare_runner(service, workers=4)
        runner.execute = lambda job: {}
        kinds = (["predict"] * 5 + ["compare"] * 2 + ["schedule"]) * 50
        jobs = [store.create(kind, {"app": app_name}) for kind in kinds]
        calls = []

        async def scenario():
            await runner.start()
            for i, job in enumerate(jobs):
                runner.enqueue(job)
                if i % 7 == 0:
                    calls.append(runner.call(pow, i, 2))  # a watch tick's way in
                    await asyncio.sleep(0)
            assert await asyncio.gather(*calls) == [i * i for i in range(0, len(jobs), 7)]
            await runner.stop(drain=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert store.counts()["done"] == len(jobs)
        assert runner.queue_depth == 0

    @pytest.mark.parametrize("drain", [False, True], ids=["no-drain", "drain-timeout"])
    def test_stop_fails_every_job_not_started(self, service_and_app, monkeypatch, drain):
        """The thread stops between jobs; nothing is left queued or running."""
        import asyncio

        from repro.server import execution

        monkeypatch.setattr(execution, "DRAIN_TIMEOUT_S", 0.1)
        service, app_name = service_and_app
        runner, store = self.bare_runner(service, workers=1)
        runner.execute, running, release = blocking_execute()
        kinds = ["predict"] * 3 + ["schedule", "predict"]
        jobs = [store.create(kind, {"app": app_name}) for kind in kinds]

        async def scenario():
            await runner.start()
            for job in jobs:
                runner.enqueue(job)
            await asyncio.get_running_loop().run_in_executor(None, running.wait, 10)
            # Released once stop() has told the thread to stop between jobs.
            threading.Timer(0.3 if drain else 0.2, release.set).start()
            await runner.stop(drain=drain)

        try:
            asyncio.run(scenario())
        finally:
            release.set()
        assert running.is_set()
        assert [job.state for job in jobs] == [JobState.DONE] + [JobState.FAILED] * 4
        assert {job.error for job in jobs[1:]} == {"daemon shut down before the job ran"}
        counts = store.counts()
        assert counts["queued"] == counts["running"] == 0
        assert runner.queue_depth == 0


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
                stale = [
                    ctx
                    for ctx in srv.daemon.runner.serving.contexts.values()
                    if ctx.snapshot_fingerprint == first["snapshot_fingerprint"]
                ]
                assert not stale
                # New work is served against the fresher snapshot.
                second = client.schedule(app_name, scheduler="cs", seed=3)
                assert second["snapshot_fingerprint"] != first["snapshot_fingerprint"]
        finally:
            service.cluster.node(loaded_node).set_background_load(0.0)

    def test_refresh_is_on_by_default_and_zero_turns_it_off(self, service_and_app):
        service, _ = service_and_app
        for settings, refreshes in (({}, True), ({"refresh_interval_s": 0}, False)):
            with DaemonThread(service, workers=1, **settings) as srv:
                tasks = {task.get_name() for task in srv.daemon.runner._tasks}
            assert ("cbes-snapshot-refresh" in tasks) is refreshes

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

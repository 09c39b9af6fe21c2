"""Integration tests for the daemon's online-remapping surface.

Exercises ``POST /v1/remap/watch``, ``GET /v1/remap/decisions`` and
``POST /v1/load`` through the blocking client against an in-process
:class:`~repro.server.daemon.DaemonThread` — the same sequence the CI
smoke runs: register a watch, inject drift, and wait for the recorded
cost/benefit decision.
"""

import time

import pytest

from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.remap import DriftWatcher, RemapLoop, Remapper
from repro.server import DaemonThread, ServerError, watches
from repro.workloads import LU

NPROCS = 4


def make_service():
    service = CBES(single_switch("watchy", 8))
    service.calibrate(seed=2)
    app = LU("A")
    service.profile_application(app, NPROCS, seed=1)
    return service, app.name


@pytest.fixture()
def server():
    service, app_name = make_service()
    with DaemonThread(service, workers=2) as srv:
        srv.app_name = app_name
        yield srv


@pytest.fixture()
def client(server):
    return server.client()


class TestValidation:
    def test_unknown_app_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.remap_watch("nope.X", ["watchy-n00"])
        assert excinfo.value.status == 400

    def test_unknown_mapping_node_400(self, client, server):
        with pytest.raises(ServerError) as excinfo:
            client.remap_watch(server.app_name, ["watchy-n00", "mars-n01"])
        assert excinfo.value.status == 400

    def test_wrong_rank_count_400(self, client, server):
        with pytest.raises(ServerError) as excinfo:
            client.remap_watch(server.app_name, ["watchy-n00", "watchy-n01"])
        assert excinfo.value.status == 400
        assert "mapping rejected" in excinfo.value.message

    def test_bad_knobs_400(self, client, server):
        nodes = [f"watchy-n{i:02d}" for i in range(NPROCS)]
        for kwargs in (
            {"interval_s": 0.0},
            {"threshold": -0.1},
            {"hysteresis": 2.0},
            {"max_ticks": 0},
        ):
            with pytest.raises(ServerError) as excinfo:
                client.remap_watch(server.app_name, nodes, **kwargs)
            assert excinfo.value.status == 400

    def test_unknown_field_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/remap/watch", {"app": "x", "frobnicate": 1})
        assert excinfo.value.status == 400

    def test_load_validation_400(self, client):
        for body in (
            {},
            {"events": []},
            {"events": [{"node": "mars-n00", "cpu_load": 1.0}]},
            {"events": [{"node": "watchy-n00", "cpu_load": -1.0}]},
            {"events": [{"node": "watchy-n00", "warp": 9}]},
        ):
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", "/v1/load", body)
            assert excinfo.value.status == 400

    def test_methods_405(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/v1/load")
        assert excinfo.value.status == 405
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/remap/decisions", {})
        assert excinfo.value.status == 405


class TestWatchLoop:
    def test_drifted_watch_records_remap_decision(self, client, server):
        nodes = [f"watchy-n{i:02d}" for i in range(NPROCS)]
        watch = client.remap_watch(
            server.app_name,
            nodes,
            interval_s=0.02,
            max_ticks=200,
            seed=5,
        )
        assert watch["id"] == "w0001"
        assert watch["mapping"] == nodes
        assert watch["baseline_s"] > 0.0
        assert [w["id"] for w in client.remap_watches()] == ["w0001"]

        result = client.inject_load(
            [{"node": n, "cpu_load": 1.5} for n in nodes]
        )
        assert len(result["applied"]) == NPROCS

        decision = client.wait_decision(watch["id"], timeout_s=30.0)
        assert decision["watch_id"] == watch["id"]
        assert decision["app"] == server.app_name
        assert decision["remap"] is True
        assert decision["drift"] > 0.10
        assert decision["current"] == nodes
        assert set(decision["candidate"]).isdisjoint(nodes)
        assert decision["savings_s"] > decision["migration_cost_s"]
        assert len(decision["moves"]) == NPROCS
        assert decision["snapshot_fingerprint"]

        # The watch adopted the candidate and rebased its baseline.
        state = next(w for w in client.remap_watches() if w["id"] == watch["id"])
        assert state["remaps"] == 1
        assert state["mapping"] == decision["candidate"]

        health = client.healthz()
        assert health["remap_watches"] == 1
        assert health["remap_decisions"] >= 1

        metrics = client.metrics_text()
        assert 'cbes_remap_decisions_total{decision="remap"} 1' in metrics
        assert "cbes_remap_drift_events_total 1" in metrics
        assert "cbes_remap_migration_seconds_total" in metrics

        # Daemon == library: the same scenario through a bare RemapLoop
        # on an identically seeded service yields the recorded documents.
        service, app_name = make_service()
        start = TaskMapping(nodes)
        loop = RemapLoop(
            mapping=start,
            baseline_s=service.evaluator(app_name).execution_time(start),
            watcher=DriftWatcher(),
            remapper=Remapper(),
            seed=5,
        )
        assert loop.baseline_s == watch["baseline_s"]
        LoadGenerator(service.cluster).apply([LoadEvent(n, cpu_load=1.5) for n in nodes])
        snapshot = service.snapshot().freeze()
        evaluator = service.evaluator(app_name, snapshot=snapshot)
        event, plan = loop.step(evaluator, decision["at_s"])
        added = {
            "watch_id": watch["id"],
            "app": app_name,
            "tick": decision["tick"],
            "at_s": decision["at_s"],
            "drift": round(event.degradation, 6),
            "snapshot_fingerprint": snapshot.fingerprint(),
        }
        assert decision == {**plan.to_dict(), **added}
        loop.adopt(plan, evaluator, decision["at_s"])
        assert {key: state[key] for key in loop.to_dict()} == loop.to_dict()

    def test_steady_watch_finishes_without_decisions(self, client, server):
        nodes = [f"watchy-n{i:02d}" for i in range(NPROCS)]
        watch = client.remap_watch(
            server.app_name, nodes, interval_s=0.02, max_ticks=5
        )
        with pytest.raises(TimeoutError):
            client.wait_decision(watch["id"], timeout_s=30.0)
        state = next(w for w in client.remap_watches() if w["id"] == watch["id"])
        assert state["done"] is True
        assert state["ticks"] == 5
        assert state["drift_events"] == 0
        assert client.remap_decisions() == []

    def test_finished_watches_are_forgotten_running_ones_kept(
        self, client, server, monkeypatch
    ):
        monkeypatch.setattr(watches, "MAX_DECISIONS", 3)
        nodes = [f"watchy-n{i:02d}" for i in range(NPROCS)]
        running = client.remap_watch(server.app_name, nodes, interval_s=30.0)
        burst = [
            client.remap_watch(server.app_name, nodes, interval_s=0.01, max_ticks=1)["id"]
            for _ in range(8)
        ]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            listed = client.remap_watches()
            if all(w["done"] for w in listed if w["id"] != running["id"]):
                break
            time.sleep(0.05)
        # The oldest watch is still running, so it stays; of the eight
        # finished ones only the newest three are retained.
        assert [w["id"] for w in listed] == [running["id"], *burst[-3:]]
        assert [w["done"] for w in listed] == [False, True, True, True]
        assert client.healthz()["remap_watches"] == 4

    def test_a_watch_reads_the_serving_generation_never_the_cold_factory(
        self, client, server, monkeypatch
    ):
        cold, calls = CBES.evaluator, []

        def spy(service, *args, **kwargs):
            calls.append(args)
            return cold(service, *args, **kwargs)

        monkeypatch.setattr(CBES, "evaluator", spy)
        nodes = [f"watchy-n{i:02d}" for i in range(NPROCS)]
        watch = client.remap_watch(server.app_name, nodes, interval_s=0.02, max_ticks=3)
        deadline = time.monotonic() + 30.0
        while not (state := client.remap_watches()[0])["done"]:
            assert time.monotonic() < deadline, state
            time.sleep(0.02)
        assert state["ticks"] == 3
        assert calls == []
        monkeypatch.undo()
        # The baseline is the one the cold factory gives on the serving snapshot.
        daemon = server.daemon
        assert watch["baseline_s"] == daemon.service.evaluator(
            server.app_name, snapshot=daemon.runner.snapshot
        ).execution_time(TaskMapping(nodes))

    def test_decisions_limit_query(self, client):
        assert client.remap_decisions(limit=3) == []
        with pytest.raises(ServerError) as excinfo:
            client.remap_decisions(limit=-1)
        assert excinfo.value.status == 400

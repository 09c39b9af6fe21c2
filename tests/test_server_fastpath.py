"""Tests for the service fast path: keep-alive connections and batch jobs.

Covers the daemon side (HTTP/1.1 keep-alive request loop with its
request-count bound and idle timeout, ``POST /v1/jobs:batch`` with
atomic accept/reject) and the client side (pooled connection, transparent
reconnect after the server drops an idle socket).  The keep-alive and
error-contract tests are the shared suite in ``tests/http_conformance.py``
(``tests/test_fleet.py`` runs the same classes through the router).
"""

from functools import partial

import pytest

from repro.cluster import single_switch
from repro.core import CBES
from repro.server import BackpressureError, DaemonThread, ServerError
from repro.server.http import LAG_PROBE_S, HttpService
from repro.telemetry import MetricsRegistry
from repro.workloads import SyntheticBenchmark
from tests.http_conformance import (
    BackpressureConformance,
    ErrorContractConformance,
    HoldConformance,
    JobDocumentConformance,
    KeepAliveConformance,
    LoopLagConformance,
    daemon_door,
    metric_value,
)


def make_service() -> tuple[CBES, str]:
    service = CBES(single_switch("mini", 6))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
    service.profile_application(app, 3, seed=1)
    return service, app.name


@pytest.fixture(scope="module")
def service_and_app():
    return make_service()


@pytest.fixture
def front_door(service_and_app):
    """The daemon as the conformance suite's front door."""
    return partial(daemon_door, service_and_app[0])


class TestKeepAlive(KeepAliveConformance):
    """The shared keep-alive contract, served by a ``DaemonThread``."""


class TestErrorContract(ErrorContractConformance):
    """The shared error / request-id contract, served by a ``DaemonThread``."""


class TestJobDocuments(JobDocumentConformance):
    """Spliced job documents parse equal to ``to_dict()``, from a ``DaemonThread``."""


class TestLoopLag(LoopLagConformance):
    """The daemon's loop measures its own stalls."""


class TestLagProbe:
    """``HttpService._probe_lag`` on a stub loop clock: no host timers."""

    class StubLoop:
        def __init__(self, now: float) -> None:
            self.now = now
            self.armed: list[tuple[float, object, tuple]] = []

        def time(self) -> float:
            return self.now

        def call_at(self, when: float, callback, *args):
            self.armed.append((when, callback, args))

    class Bare(HttpService):
        def routes(self):
            return {}

    def probe(self):
        registry = MetricsRegistry()
        service = self.Bare(
            name="probe", metric_prefix="probe", host="127.0.0.1", port=0, metrics=registry,
            keepalive_max_requests=1, keepalive_timeout_s=1.0, max_body_bytes=1,
        )
        service._loop = loop = self.StubLoop(100.0)
        service._arm_lag_probe()
        return service, loop, registry

    @staticmethod
    def observed(registry) -> tuple[int, float]:
        (sample,) = registry.snapshot()["probe_event_loop_lag_seconds"]["samples"]
        return sample["count"], sample["sum"]

    def test_an_on_time_firing_observes_zero_and_a_late_one_its_lateness(self):
        service, loop, registry = self.probe()
        ((due, callback, args),) = loop.armed
        assert due == 100.0 + LAG_PROBE_S and args == (due,)
        loop.now = due  # on time
        callback(*args)
        assert self.observed(registry) == (1, 0.0)
        (_, (due, callback, args)) = loop.armed
        assert due == loop.now + LAG_PROBE_S  # re-armed one period on
        loop.now = due + 0.05  # 50 ms late
        callback(*args)
        count, total = self.observed(registry)
        assert count == 2 and total == pytest.approx(0.05)
        (_, _, (due, _, args)) = loop.armed
        assert due == loop.now + LAG_PROBE_S and args == (due,)  # from the late firing

    def test_a_firing_before_its_due_time_observes_zero(self):
        service, loop, registry = self.probe()
        ((due, callback, args),) = loop.armed
        loop.now = due - 0.0005  # a selector that woke early
        callback(*args)
        assert self.observed(registry) == (1, 0.0)


class TestBackpressure(BackpressureConformance):
    """A full queue's 429 carries ``Retry-After``, from a ``DaemonThread``."""


class TestHolds(HoldConformance):
    """Job lookups held with ``wait_s``, by a ``DaemonThread``."""


class TestBatchSubmission:
    def test_batch_matches_serial(self, service_and_app):
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()
        docs = [
            {"kind": "predict", "app": app_name, "nodes": [nodes[i], nodes[i + 1], nodes[i + 2]]}
            for i in range(3)
        ]
        with DaemonThread(service, workers=2, queue_limit=16) as srv:
            client = srv.client()
            serial_ids = [client.submit(**doc)["id"] for doc in docs]
            serial = client.wait_many(serial_ids, timeout_s=60.0)

            batch_jobs = client.submit_batch(docs)
            assert len(batch_jobs) == 3
            assert len({job["id"] for job in batch_jobs}) == 3  # per-job ids
            assert all(job["state"] == "queued" for job in batch_jobs)
            batch = client.wait_many([job["id"] for job in batch_jobs], timeout_s=60.0)

            for a, b in zip(serial, batch, strict=True):
                assert a["result"]["execution_time"] == b["result"]["execution_time"]
            assert metric_value(client, "cbes_batch_submissions_total") == 1.0

    def test_invalid_entry_rejects_whole_batch(self, service_and_app):
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()[:3]
        with DaemonThread(service, workers=1, queue_limit=8) as srv:
            client = srv.client()
            with pytest.raises(ServerError) as excinfo:
                client.submit_batch(
                    [
                        {"kind": "predict", "app": app_name, "nodes": nodes},
                        {"kind": "predict", "app": "no-such-app", "nodes": nodes},
                    ]
                )
            assert excinfo.value.status == 400
            assert "jobs[1]" in str(excinfo.value)
            assert client.jobs() == []  # atomic: nothing was queued

    def test_batch_over_capacity_queues_nothing(self, service_and_app):
        service, app_name = service_and_app
        nodes = service.cluster.node_ids()
        docs = [
            {"kind": "predict", "app": app_name, "nodes": [nodes[i], nodes[i + 1], nodes[i + 2]]}
            for i in range(4)
        ]
        release_batch = [
            {"kind": "predict", "app": app_name, "nodes": nodes[:3]},
        ]
        with DaemonThread(service, workers=1, queue_limit=2) as srv:
            client = srv.client()
            with pytest.raises(BackpressureError) as excinfo:
                client.submit_batch(docs)
            assert excinfo.value.retry_after_s > 0
            assert client.jobs() == []  # all-or-nothing
            # A batch that fits still goes through afterwards.
            jobs = client.submit_batch(release_batch)
            assert client.wait(jobs[0]["id"], timeout_s=60.0)["state"] == "done"

    def test_empty_and_malformed_batches(self, service_and_app):
        service, _ = service_and_app
        with DaemonThread(service, workers=1, queue_limit=4) as srv:
            client = srv.client()
            with pytest.raises(ServerError) as excinfo:
                client.submit_batch([])
            assert excinfo.value.status == 400
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", "/v1/jobs:batch", {"jobs": [1, 2]})
            assert "jobs[0]" in str(excinfo.value)

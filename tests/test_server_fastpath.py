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
from repro.workloads import SyntheticBenchmark
from tests.http_conformance import (
    ErrorContractConformance,
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

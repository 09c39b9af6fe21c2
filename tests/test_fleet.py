"""Fleet tests: rendezvous hashing, the router, and failure handling.

The router fronts two in-process :class:`DaemonThread` replicas built
from identically-seeded services, so a job scheduled through the fleet
must produce byte-identical results to direct submission — the
correctness bar for transparent scale-out.
"""

import http.client
import json
import socket
import time
import urllib.request
from functools import partial

import pytest

from repro.cluster import single_switch
from repro.core import CBES
from repro.fleet import RouterThread, pick_backend, rendezvous_rank
from repro.server import DaemonThread
from repro.server.client import ServerError
from repro.workloads import SyntheticBenchmark
from tests.http_conformance import (
    HEALTHZ,
    ErrorContractConformance,
    JobDocumentConformance,
    JobLookupConformance,
    KeepAliveConformance,
    LoopLagConformance,
    OversizedBodyConformance,
    RoutingConformance,
    metric_value,
    raw_exchange,
    router_door,
)


def make_service() -> tuple[CBES, str]:
    service = CBES(single_switch("mini", 6))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
    service.profile_application(app, 3, seed=1)
    return service, app.name


NODES = ["mini-n00", "mini-n01", "mini-n02"]


class TestRendezvousHashing:
    BACKENDS = ["10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080"]

    def test_stable_under_permutation(self):
        keys = [f"job-{i}" for i in range(200)]
        reversed_backends = list(reversed(self.BACKENDS))
        shuffled = [self.BACKENDS[2], self.BACKENDS[0], self.BACKENDS[3], self.BACKENDS[1]]
        for key in keys:
            rank = rendezvous_rank(key, self.BACKENDS)
            assert rendezvous_rank(key, reversed_backends) == rank
            assert rendezvous_rank(key, shuffled) == rank

    def test_rank_is_a_total_order_over_the_set(self):
        rank = rendezvous_rank("some-key", self.BACKENDS)
        assert sorted(rank) == sorted(self.BACKENDS)

    def test_minimal_disruption_on_replica_loss(self):
        """Removing one backend only re-routes the keys it owned."""
        keys = [f"job-{i}" for i in range(300)]
        before = {k: pick_backend(k, self.BACKENDS) for k in keys}
        lost = self.BACKENDS[1]
        survivors = [b for b in self.BACKENDS if b != lost]
        for key in keys:
            after = pick_backend(key, survivors)
            if before[key] != lost:
                assert after == before[key], f"{key} moved needlessly"
            else:
                assert after == rendezvous_rank(key, self.BACKENDS)[1]

    def test_keys_spread_over_backends(self):
        owners = {pick_backend(f"job-{i}", self.BACKENDS) for i in range(200)}
        assert owners == set(self.BACKENDS)

    def test_empty_backends_rejected(self):
        with pytest.raises(ValueError):
            rendezvous_rank("key", [])


@pytest.fixture(scope="module")
def fleet():
    """Two identically-built replicas behind a router."""
    s1, app = make_service()
    s2, _ = make_service()
    with DaemonThread(s1, workers=1, queue_limit=32, replica_id="r0") as d1:
        with DaemonThread(s2, workers=1, queue_limit=32, replica_id="r1") as d2:
            backends = [f"{d1.host}:{d1.port}", f"{d2.host}:{d2.port}"]
            with RouterThread(backends) as router:
                yield router, (d1, d2), app


class TestFleetRouter:
    def test_healthz_aggregates_replicas(self, fleet):
        router, _, _ = fleet
        health = router.client().healthz()
        assert health["status"] == "ok"
        assert health["role"] == "fleet-router"
        assert health["replicas_total"] == 2
        assert health["replicas_healthy"] == 2
        assert {r["replica"] for r in health["replicas"]} == {"r0", "r1"}
        assert health["workers"] == 2  # 1 per replica, summed
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}

    def test_schedule_through_fleet_equals_direct(self, fleet):
        router, (d1, _), app = fleet
        via_fleet = router.client()
        job_id = via_fleet.submit("schedule", app=app, scheduler="cs")["id"]
        fleet_result = via_fleet.wait(job_id, timeout_s=120)["result"]
        direct = d1.client()
        direct_result = direct.wait(
            direct.submit("schedule", app=app, scheduler="cs")["id"], timeout_s=120
        )["result"]
        assert fleet_result["mapping"] == direct_result["mapping"]
        assert fleet_result["predicted_time"] == direct_result["predicted_time"]

    def test_batch_merges_in_submission_order(self, fleet):
        router, _, app = fleet
        client = router.client()
        entries = [{"kind": "predict", "app": app, "nodes": NODES} for _ in range(8)]
        jobs = client.submit_batch(entries)
        assert len(jobs) == 8
        ids = [j["id"] for j in jobs]
        assert len(set(ids)) == 8, "router must mint unique ids"
        results = [client.wait(i, timeout_s=120) for i in ids]
        assert all(r["state"] == "done" for r in results)
        # Identical submissions on identically-built replicas: every
        # result agrees no matter which replica served it.
        times = {r["result"]["execution_time"] for r in results}
        assert len(times) == 1

    def test_lookup_routes_by_id(self, fleet):
        router, (d1, d2), app = fleet
        client = router.client()
        job_id = client.submit("predict", app=app, nodes=NODES)["id"]
        client.wait(job_id, timeout_s=120)
        # The job lives on exactly one replica (shared-nothing) and the
        # router finds it there.
        owners = 0
        for replica in (d1, d2):
            try:
                replica.client().job(job_id)
                owners += 1
            except ServerError as err:
                assert err.status == 404
        assert owners == 1
        assert client.job(job_id)["state"] == "done"

    def test_unknown_job_is_404_fleet_wide(self, fleet):
        router, _, _ = fleet
        with pytest.raises(ServerError) as err:
            router.client().job("no-such-job")
        assert err.value.status == 404

    def test_duplicate_id_rejected_fleet_wide(self, fleet):
        router, _, app = fleet
        client = router.client()
        client.submit("predict", id="dup-1", app=app, nodes=NODES)
        with pytest.raises(ServerError) as err:
            client.submit("predict", id="dup-1", app=app, nodes=NODES)
        assert err.value.status == 409

    def test_listing_merges_and_pages(self, fleet):
        router, _, app = fleet
        client = router.client()
        ids = [client.submit("predict", app=app, nodes=NODES)["id"] for _ in range(4)]
        for job_id in ids:
            client.wait(job_id, timeout_s=120)
        done = client.jobs(state="done")
        listed = {j["id"] for j in done}
        assert set(ids) <= listed
        page = client.jobs(limit=3)
        assert len(page) == 3
        after = client.jobs(after=page[0]["id"])
        assert page[0]["id"] not in {j["id"] for j in after}
        with pytest.raises(ServerError) as err:
            client.jobs(after="nonexistent")
        assert err.value.status == 400

    def test_id_lookup_asks_only_the_owning_replicas(self, fleet):
        router, (d1, d2), app = fleet
        client = router.client()
        backends = router.router.backends
        # 16 random ids: all on one replica once in 2**15 runs (6 ids
        # made that once in 32, and tier-1 flaked on it).
        accepted = client.submit_batch(
            [{"kind": "predict", "app": app, "nodes": NODES} for _ in range(16)]
        )
        ids = [job["id"] for job in accepted]
        client.wait_many(ids, timeout_s=120)
        on_first = [i for i in ids if rendezvous_rank(i, backends)[0] == backends[0]]
        assert on_first and len(on_first) < len(ids), "uuid ids should land on both replicas"

        def lookups(replica) -> float:
            return metric_value(
                replica.client(),
                "cbes_requests_total",
                '{method="GET",route="/v1/jobs",status="200"}',
            )

        before = lookups(d1), lookups(d2)
        found = client.jobs(ids=on_first)
        assert sorted(job["id"] for job in found) == sorted(on_first)
        assert (lookups(d1), lookups(d2)) == (before[0] + 1, before[1])
        # Ids of both replicas: one call each, merged in replica order.
        found = client.jobs(ids=ids)
        assert sorted(job["id"] for job in found) == sorted(ids)
        owners = [rendezvous_rank(job["id"], backends)[0] for job in found]
        assert owners == sorted(owners, key=backends.index)
        assert (lookups(d1), lookups(d2)) == (before[0] + 2, before[1] + 1)

    def test_wait_many_finds_a_job_on_its_second_choice_replica(self, fleet):
        """fleet == direct still holds when a job does not live on its owner."""
        router, replicas, app = fleet
        client = router.client()
        backends = router.router.backends
        doc = {"kind": "predict", "app": app, "nodes": NODES}
        # As if its first choice had been unhealthy at submit time: the
        # job is placed on the second replica of its preference order.
        stray = "stray-job-1"
        second = replicas[backends.index(rendezvous_rank(stray, backends)[1])]
        second.client().submit(**doc, id=stray)
        routed = [job["id"] for job in client.submit_batch([doc, doc])]
        retries = metric_value(client, "cbes_fleet_retries_total")
        done = client.wait_many([routed[0], stray, routed[1]], timeout_s=120)
        assert [job["id"] for job in done] == [routed[0], stray, routed[1]]
        assert metric_value(client, "cbes_fleet_retries_total") > retries
        # Bit-identical to what the replica itself serves, and to the
        # answer a direct daemon gives the same request.
        assert done[1] == second.client().job(stray)
        direct = replicas[0].client()
        expected = direct.wait(direct.submit(**doc)["id"], timeout_s=120)["result"]
        assert [job["result"] for job in done] == [expected] * 3

    def test_metrics_merge_replica_counters(self, fleet):
        router, _, _ = fleet
        client = router.client()
        text = client.metrics_text()
        assert "cbes_fleet_requests_total" in text
        assert "cbes_fleet_replicas 2" in text
        assert "cbes_fleet_replicas_healthy 2" in text
        for line in text.splitlines():
            if line.startswith("cbes_connections_total"):
                # Both replicas' accepted connections, summed.
                assert float(line.split()[-1]) >= 2
                break
        else:
            pytest.fail("cbes_connections_total missing from merged scrape")
        doc = client._request("GET", "/v1/metrics?format=json")
        assert "cbes_fleet_requests_total" in doc["metrics"]

    def test_reads_forwarded(self, fleet):
        router, _, app = fleet
        client = router.client()
        assert app in client.profiles()
        assert "snapshot" in client._request("GET", "/v1/snapshot")

    def test_remap_endpoints_not_proxied(self, fleet):
        router, _, _ = fleet
        with pytest.raises(ServerError) as err:
            router.client()._request("GET", "/v1/remap/watches")
        assert err.value.status == 501

    def test_schedule_best_races_replicas(self, fleet):
        router, _, app = fleet
        url = f"http://{router.host}:{router.port}/v1/schedule:best"
        body = json.dumps({"kind": "schedule", "app": app, "scheduler": "cs"}).encode()
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}, method="POST"
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            doc = json.loads(response.read())
        assert doc["replicas_raced"] == 2
        assert doc["best"]["predicted_time"] == min(
            r["predicted_time"] for r in doc["results"]
        )

    def test_router_restart_keeps_finding_jobs(self, fleet):
        """Routing is a pure function: a fresh router resolves old ids."""
        router, (d1, d2), app = fleet
        client = router.client()
        job_id = client.submit("predict", app=app, nodes=NODES)["id"]
        client.wait(job_id, timeout_s=120)
        backends = [f"{d1.host}:{d1.port}", f"{d2.host}:{d2.port}"]
        with RouterThread(backends) as second_router:
            assert second_router.client().job(job_id)["state"] == "done"


    def test_listing_state_filter_cannot_inject_requests(self, fleet):
        """Regression: ``state`` was pasted un-encoded into the replica request line."""
        router, _, _ = fleet
        client = router.client()
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v1/jobs?state=bogus")
        assert err.value.status == 400
        smuggle = (
            "/v1/jobs?state=done%20HTTP/1.1%0d%0aContent-Length:%200%0d%0a%0d%0a"
            "GET%20/v1/profiles"
        )
        with pytest.raises(ServerError) as err:
            client._request("GET", smuggle)
        assert err.value.status == 400
        # No second request reached a replica: its pooled socket is
        # still in sync, so the next scatter gets the answer it asked for.
        assert isinstance(client.healthz()["jobs"], dict)

    def test_request_id_is_one_id_through_the_fleet(self, fleet):
        router, _, app = fleet
        conn = http.client.HTTPConnection(router.host, router.port, timeout=30)
        try:
            body = json.dumps({"kind": "predict", "app": app, "nodes": NODES})
            conn.request(
                "POST", "/v1/jobs", body, {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            job = json.loads(response.read())["job"]
            seen = response.getheader("X-Request-Id")
            assert response.status == 202 and seen
            # The replica stored the id the client saw, not a per-hop one.
            assert job["request_id"] == seen
            # ... and a client-chosen id survives both hops.
            conn.request(
                "POST",
                "/v1/jobs",
                body,
                {"Content-Type": "application/json", "X-Request-Id": "client-chosen.1"},
            )
            response = conn.getresponse()
            job = json.loads(response.read())["job"]
            assert response.getheader("X-Request-Id") == "client-chosen.1"
            assert job["request_id"] == "client-chosen.1"
        finally:
            conn.close()


@pytest.fixture(scope="module")
def conformance_service():
    return make_service()[0]


class TestRouterConformance(
    KeepAliveConformance,
    OversizedBodyConformance,
    ErrorContractConformance,
    RoutingConformance,
    JobLookupConformance,
    LoopLagConformance,
):
    """The daemon's HTTP contract (tests/http_conformance.py), through the router."""

    @pytest.fixture
    def front_door(self, conformance_service):
        return partial(router_door, conformance_service)

    @pytest.fixture
    def client(self, front_door):
        with front_door() as door:
            yield door.client()

    def test_shutdown_reaps_idle_keepalive_socket(self, front_door):
        """An idle keep-alive client must not pin the router's shutdown."""
        with front_door() as door:
            with socket.create_connection(door.address, timeout=10) as sock:
                assert b"Connection: keep-alive" in raw_exchange(sock, HEALTHZ)
                started = time.monotonic()
                door.thread.shutdown()
                assert time.monotonic() - started < 5.0
                sock.settimeout(5)
                assert sock.recv(1) == b""  # the router closed it


class TestTwoReplicaJobDocuments(JobDocumentConformance):
    """The replicas' spliced job documents, relayed by a router over two of them."""

    @pytest.fixture
    def front_door(self, conformance_service):
        return partial(router_door, conformance_service, make_service()[0])


class TestFleetDegradation:
    def test_replica_loss_degrades_but_keeps_serving(self):
        s1, app = make_service()
        s2, _ = make_service()
        d1 = DaemonThread(s1, workers=1, queue_limit=32, replica_id="r0")
        d2 = DaemonThread(s2, workers=1, queue_limit=32, replica_id="r1")
        d1.__enter__()
        d2.__enter__()
        try:
            backends = [f"{d1.host}:{d1.port}", f"{d2.host}:{d2.port}"]
            with RouterThread(backends, unhealthy_after=1, probe_interval_s=0.1) as router:
                client = router.client()
                ids = [client.submit("predict", app=app, nodes=NODES)["id"] for _ in range(4)]
                for job_id in ids:
                    client.wait(job_id, timeout_s=120)
                d2.shutdown()
                health = client.healthz()
                assert health["status"] == "degraded"
                assert health["replicas_healthy"] == 1
                # New submissions route to the survivor.
                job_id = client.submit("predict", app=app, nodes=NODES)["id"]
                assert client.wait(job_id, timeout_s=120)["state"] == "done"
                # Listing serves what the survivors hold.
                assert client.jobs(state="done")
                assert "cbes_fleet_backend_unhealthy_total" in client.metrics_text()
        finally:
            d1.shutdown()
            if d2._thread.is_alive():
                d2.shutdown()

    def test_all_replicas_down_is_503(self):
        s1, app = make_service()
        d1 = DaemonThread(s1, workers=1, replica_id="r0")
        d1.__enter__()
        backends = [f"{d1.host}:{d1.port}"]
        try:
            with RouterThread(backends, unhealthy_after=1, probe_interval_s=0.1) as router:
                client = router.client()
                d1.shutdown()
                with pytest.raises(ServerError) as err:
                    client.submit("predict", app=app, nodes=NODES)
                assert err.value.status == 503
                assert client.healthz()["status"] == "degraded"
        finally:
            if d1._thread.is_alive():
                d1.shutdown()

"""One HTTP conformance suite for both front doors.

The daemon and the fleet router serve clients through the same
:class:`repro.server.http.HttpService` core, so the connection /
keep-alive / request-id / error contract is asserted once, here, as
mixin classes; ``tests/test_server_*.py`` run them against a
``DaemonThread`` and ``tests/test_fleet.py`` against a
``RouterThread`` over one replica.  A test class picks the door by
defining a ``front_door`` fixture: a factory ``front_door(**http)`` (the
keyword arguments are the core's keep-alive / body-size knobs) returning
a context manager that yields a :class:`Door`.
"""

from __future__ import annotations

import socket
import time
from contextlib import ExitStack, contextmanager
from typing import NamedTuple

import pytest

from repro.fleet import RouterThread
from repro.server import DaemonThread, ServerError
from repro.server.http import HttpService, ServiceThread
from repro.server.jobs import JobStore
from repro.server.protocol import MAX_HEADER_BYTES, MAX_LOOKUP_IDS


class Door(NamedTuple):
    """A running front door: its harness, its service core, its metric
    prefix, and the job stores of the daemon(s) answering behind it."""

    thread: ServiceThread
    core: HttpService
    prefix: str
    stores: tuple[JobStore, ...]

    @property
    def address(self) -> tuple[str, int]:
        return self.thread.host, self.thread.port

    def client(self, **kwargs):
        return self.thread.client(**kwargs)


@contextmanager
def daemon_door(service, **http):
    """A daemon as the front door."""
    with DaemonThread(service, workers=1, queue_limit=4, **http) as srv:
        yield Door(srv, srv.daemon, "cbes", (srv.daemon.store,))


@contextmanager
def router_door(*services, **http):
    """A fleet router as the front door, over one replica daemon per service."""
    with ExitStack() as stack:
        replicas = [
            stack.enter_context(
                DaemonThread(service, workers=1, queue_limit=4, replica_id=f"r{i}")
            )
            for i, service in enumerate(services)
        ]
        fleet = RouterThread([f"{replica.host}:{replica.port}" for replica in replicas])
        # The router has no constructor knobs for these; they are plain
        # attributes of the shared core.
        for name, value in http.items():
            setattr(fleet.router, name, value)
        with fleet:
            stores = tuple(replica.daemon.store for replica in replicas)
            yield Door(fleet, fleet.router, "cbes_fleet", stores)


def metric_value(client, name: str, labels: str = "") -> float:
    """Read one sample off the Prometheus text exposition."""
    needle = f"{name}{labels} " if labels else f"{name} "
    for line in client.metrics_text().splitlines():
        if line.startswith(needle):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def raw_exchange(sock: socket.socket, request: bytes) -> bytes:
    """One request on an already-open socket; reads headers + body."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    length = 0
    for line in head.decode("latin-1").split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"


class KeepAliveConformance:
    def test_one_connection_serves_many_requests(self, front_door):
        with front_door() as door:
            client = door.client()
            for _ in range(5):
                assert client.healthz()["status"] == "ok"
            # 5 requests, 1 TCP connection, 4 of them keep-alive reuses
            # (the metrics scrape itself rides the same connection).
            assert metric_value(client, f"{door.prefix}_connections_total") == 1.0
            assert metric_value(client, f"{door.prefix}_keepalive_requests_total") >= 4.0

    def test_connection_close_header_honored(self, front_door):
        with front_door() as door:
            with socket.create_connection(door.address, timeout=10) as sock:
                reply = raw_exchange(
                    sock,
                    b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
                )
                assert b"200 OK" in reply
                assert b"Connection: close" in reply
                sock.settimeout(5)
                assert sock.recv(1) == b""  # server closed after responding

    def test_keepalive_responses_advertise_keepalive(self, front_door):
        with front_door() as door:
            with socket.create_connection(door.address, timeout=10) as sock:
                first = raw_exchange(sock, HEALTHZ)
                second = raw_exchange(sock, HEALTHZ)
                assert b"Connection: keep-alive" in first
                assert b"200 OK" in second  # same socket, second answer

    def test_max_requests_per_connection(self, front_door):
        with front_door(keepalive_max_requests=2) as door:
            with socket.create_connection(door.address, timeout=10) as sock:
                first = raw_exchange(sock, HEALTHZ)
                second = raw_exchange(sock, HEALTHZ)
                assert b"Connection: keep-alive" in first
                assert b"Connection: close" in second  # bound reached
                sock.settimeout(5)
                assert sock.recv(1) == b""
            # The pooled client rides through the bound transparently.
            client = door.client()
            for _ in range(5):
                assert client.healthz()["status"] == "ok"

    def test_client_reconnects_after_idle_drop(self, front_door):
        """Satellite: stale pooled sockets retry once, transparently."""
        with front_door(keepalive_timeout_s=0.2) as door:
            client = door.client()
            assert client.healthz()["status"] == "ok"
            time.sleep(0.6)  # idle timeout reaps the server side
            assert client.healthz()["status"] == "ok"  # transparent retry


class RoutingConformance:
    """404 / 405 derived from the route table; needs a ``client`` fixture."""

    def test_unknown_route_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/v2/nothing")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404

    def test_template_spelled_literally_is_an_unknown_job(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/v1/jobs/{id}")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/healthz", {"x": 1})
        assert excinfo.value.status == 405

    @pytest.mark.parametrize(
        "body",
        [{}, {"jobs": []}, {"jobs": [7]}, {"jobs": {"kind": "predict"}}, {"job": []}],
        ids=["no-jobs", "empty", "non-object-entry", "not-a-list", "misspelt"],
    )
    def test_misshapen_batch_400(self, client, body):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/jobs:batch", body)
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad-request")


class JobLookupConformance:
    """``GET /v1/jobs?ids=...``; needs a ``client`` fixture over a service
    with one profiled 3-rank application."""

    @staticmethod
    def _finished(client, count: int = 3) -> list[dict]:
        doc = {
            "kind": "predict",
            "app": client.profiles()[0],
            "nodes": sorted(client.snapshot()["nodes"])[:3],
        }
        accepted = client.submit_batch([doc] * count)
        return client.wait_many([job["id"] for job in accepted], timeout_s=60.0)

    def test_lookup_returns_the_named_jobs_once_each(self, client):
        done = self._finished(client)
        ids = [job["id"] for job in done]
        found = client.jobs(ids=[ids[2], "no-such-job", ids[0], ids[2]])
        # Unknown ids are absent, a repeated id is answered once, and the
        # documents are the ones a point lookup serves.
        assert sorted(job["id"] for job in found) == sorted([ids[0], ids[2]])
        assert all(job == client.job(job["id"]) for job in found)
        assert client.jobs(ids=["no-such-job"]) == []

    def test_lookup_state_filter(self, client):
        ids = [job["id"] for job in self._finished(client)]
        assert {job["id"] for job in client.jobs(ids=ids, state="done")} == set(ids)
        assert client.jobs(ids=ids, state="failed") == []

    @pytest.mark.parametrize(
        "query",
        [
            "ids=",
            "ids=a,,b",
            "ids=a,",
            "ids=" + ",".join(f"j{i}" for i in range(MAX_LOOKUP_IDS + 1)),
            "ids=a&limit=1",
            "ids=a&after=b",
        ],
    )
    def test_malformed_lookup_400(self, client, query):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", f"/v1/jobs?{query}")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"
        assert client.healthz()["status"] == "ok"  # the connection survived it

    def test_client_chunks_id_lists_past_the_header_cap(self, client):
        ids = [job["id"] for job in self._finished(client)]
        filler = [f"never-submitted-{i:04d}-{'x' * 24}" for i in range(3 * MAX_LOOKUP_IDS)]
        asked = filler[: len(filler) // 2] + ids + filler[len(filler) // 2 :]
        assert sum(map(len, asked)) > 2 * MAX_HEADER_BYTES
        paths = []
        request = client._request

        def recording(method, path, body=None):
            paths.append(path)
            return request(method, path, body)

        client._request = recording
        try:
            found = client.jobs(ids=asked)
        finally:
            del client._request
        assert sorted(job["id"] for job in found) == sorted(ids)
        assert len(paths) > 1
        for path in paths:
            assert len(path) < MAX_HEADER_BYTES
            assert path.count(",") < MAX_LOOKUP_IDS


class JobDocumentConformance:
    """What the wire says about a job parses equal to ``Job.to_dict()``.

    A finished job keeps its result as JSON bytes and the daemon splices
    them into its answers; needs a ``front_door`` over service(s) with
    one profiled 3-rank application.
    """

    def test_every_job_answer_parses_equal_to_to_dict(self, front_door):
        with front_door() as door:
            client = door.client()
            app = client.profiles()[0]
            nodes = sorted(client.snapshot()["nodes"])[:3]
            accepted = client.submit_batch(
                [{"kind": "predict", "app": app, "nodes": nodes}] * 3
                + [{"kind": "compare", "app": app, "mappings": [nodes, nodes[::-1]]}]
            )
            ids = [job["id"] for job in accepted]
            client.wait_many(ids, timeout_s=60.0)
            held = {job.id: job.to_dict() for store in door.stores for job in store.list()}
            assert sorted(held) == sorted(ids)
            assert all(doc["state"] == "done" and doc["result"] for doc in held.values())
            assert {job["id"]: job for job in client.jobs()} == held
            assert {job["id"]: job for job in client.jobs(ids=ids)} == held
            assert {job_id: client.job(job_id) for job_id in ids} == held


class LoopLagConformance:
    """``<prefix>_event_loop_lag_seconds``: a stall of the serving loop is measured."""

    @staticmethod
    def _buckets(door) -> tuple[dict[float, int], int]:
        """(cumulative count by bucket bound, observations) of the door's own loop."""
        (sample,) = door.core.metrics.snapshot()[f"{door.prefix}_event_loop_lag_seconds"][
            "samples"
        ]
        return dict(sample["buckets"]), sample["count"]

    def test_a_blocking_call_is_observed_and_an_idle_loop_is_not(self, front_door):
        with front_door() as door:
            time.sleep(0.3)  # idle: the probe fires every LAG_PROBE_S
            cumulative, count = self._buckets(door)
            assert count >= 10
            # Timers fire within the selector's 1 ms rounding on an idle loop.
            assert cumulative[0.001] >= 0.8 * count
            assert cumulative[0.025] == count
            door.core._loop.call_soon_threadsafe(time.sleep, 0.05)
            time.sleep(0.3)
            cumulative, count = self._buckets(door)
            assert count - cumulative[0.025] == 1  # one observation in a bucket >= 0.05
            assert door.prefix + "_event_loop_lag_seconds_bucket" in door.client().metrics_text()


class OversizedBodyConformance:
    def test_oversized_body_413_keeps_connection_alive(self, front_door):
        with front_door(max_body_bytes=1024) as door:
            body = b"{" + b" " * 4096 + b"}"
            request = (
                f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
                f"Content-Type: application/json\r\n\r\n"
            ).encode() + body
            follow_up = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            with socket.create_connection(door.address, timeout=10) as sock:
                first = raw_exchange(sock, request)
                assert b"413" in first.split(b"\r\n", 1)[0]
                assert b"keep-alive" in first.lower()
                # The same socket must still serve the next request.
                second = raw_exchange(sock, follow_up)
                assert b"200" in second.split(b"\r\n", 1)[0]


class ErrorContractConformance:
    def test_malformed_request_line_400_and_close(self, front_door):
        with front_door() as door:
            with socket.create_connection(door.address, timeout=10) as sock:
                reply = raw_exchange(sock, b"NONSENSE\r\n\r\n")
                assert reply.startswith(b"HTTP/1.1 400 ")
                assert b"Connection: close" in reply
                sock.settimeout(5)
                assert sock.recv(1) == b""  # framing is unknowable: closed

    def test_handler_exception_500_and_close_without_traceback(self, front_door):
        async def boom(request):
            raise RuntimeError("secret internal detail")

        with front_door() as door:
            door.core._table["/v1/healthz"]["GET"] = boom
            with socket.create_connection(door.address, timeout=10) as sock:
                reply = raw_exchange(sock, HEALTHZ)
                assert reply.startswith(b"HTTP/1.1 500 ")
                assert b"Connection: close" in reply
                assert b'"internal server error"' in reply
                assert b"secret" not in reply and b"Traceback" not in reply
                sock.settimeout(5)
                assert sock.recv(1) == b""

    def test_every_response_carries_a_request_id(self, front_door):
        def request_id(reply: bytes) -> str:
            for line in reply.split(b"\r\n\r\n", 1)[0].decode("latin-1").split("\r\n"):
                if line.lower().startswith("x-request-id:"):
                    return line.split(":", 1)[1].strip()
            pytest.fail(f"no X-Request-Id in {reply[:200]!r}")

        with front_door() as door:
            with socket.create_connection(door.address, timeout=10) as sock:
                minted = request_id(raw_exchange(sock, HEALTHZ))
                assert minted
                # A well-formed inbound id is honoured; errors carry one too.
                echoed = raw_exchange(
                    sock, b"GET /v2/nothing HTTP/1.1\r\nHost: x\r\nX-Request-Id: trace-42.a\r\n\r\n"
                )
                assert echoed.startswith(b"HTTP/1.1 404 ")
                assert request_id(echoed) == "trace-42.a"
                # A hostile one is replaced, never reflected.
                replaced = raw_exchange(
                    sock, b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Request-Id: a b<c>\r\n\r\n"
                )
                assert request_id(replaced) not in ("a b<c>", minted)

"""``CbesClient``'s own HTTP framing, against a scripted stub server.

The stub reads each request with the daemon's parser
(:func:`repro.server.protocol.read_request`, fed from a plain socket)
and answers with bytes a test scripts: split into 1-byte segments,
headers spelled in any case, ``Connection: close``, a body cut short,
a body that is not a JSON object, or no answer at all.
"""

from __future__ import annotations

import asyncio
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.server.client import BackpressureError, CbesClient, ServerError
from repro.server.protocol import (
    HttpRequest,
    RawResponse,
    parse_head,
    read_request,
    render_response,
)

OK = render_response(200, {"status": "ok"}, close=False)


def parse(raw: bytes) -> HttpRequest | None:
    async def _parse():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(_parse())


def receive(conn: socket.socket) -> HttpRequest | None:
    """One whole request off *conn*, or ``None`` once the client hung up."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    length = parse_head(head + b"\r\n\r\n")[2] or 0
    while len(body) < length:
        body += conn.recv(65536)
    return parse(head + b"\r\n\r\n" + body)


class Stub:
    """A server on a thread that calls ``script(conn, request, n)`` per request.

    *n* counts requests across connections from 0.  The script sends
    what it likes on *conn*; it returns ``False`` to close the
    connection.  ``connections`` counts the sockets accepted.
    """

    def __init__(self, script) -> None:
        self.script = script
        self.connections = 0
        self.requests: list[HttpRequest] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn:
            while (request := receive(conn)) is not None:
                self.requests.append(request)
                if self.script(conn, request, len(self.requests) - 1) is False:
                    return

    def client(self, **kwargs) -> CbesClient:
        return CbesClient("127.0.0.1", self.port, **kwargs)

    def close(self) -> None:
        self._listener.close()


@pytest.fixture
def stub():
    stubs: list[Stub] = []

    def make(script) -> Stub:
        stubs.append(Stub(script))
        return stubs[-1]

    yield make
    for server in stubs:
        server.close()


class TestFraming:
    def test_an_answer_in_one_byte_segments_is_read_whole(self, stub):
        def one_byte_at_a_time(conn, request, n):
            for i in range(len(OK)):
                conn.sendall(OK[i : i + 1])

        with stub(one_byte_at_a_time).client(timeout_s=10) as client:
            assert client.healthz() == {"status": "ok"}
            assert client.healthz() == {"status": "ok"}

    def test_a_large_body_is_read_exactly(self, stub):
        body = {"jobs": [{"id": f"j{i:06d}", "pad": "x" * 100} for i in range(5000)]}
        answer = render_response(200, body, close=False)
        server = stub(lambda conn, request, n: conn.sendall(answer))
        with server.client(timeout_s=10) as client:
            assert client.jobs() == body["jobs"]
            assert client.jobs() == body["jobs"]  # the socket stayed framed
        assert server.connections == 1

    def test_the_request_is_one_the_daemon_parses(self, stub):
        server = stub(lambda conn, request, n: conn.sendall(
            render_response(202, {"job": {"id": "j1"}}, close=False)
        ))
        with server.client(timeout_s=10) as client:
            assert client.submit("predict", app="cg.A", nodes=["a", "b"]) == {"id": "j1"}
        (request,) = server.requests
        assert (request.method, request.path) == ("POST", "/v1/jobs")
        assert request.headers["host"] == f"127.0.0.1:{server.port}"
        assert request.json() == {"kind": "predict", "app": "cg.A", "nodes": ["a", "b"]}

    @pytest.mark.parametrize("spell", [str.lower, str.upper, str.swapcase], ids=["lower", "upper", "swapped"])
    def test_header_names_are_read_in_any_case(self, stub, spell):
        body = b'{"error":{"code":"queue-full","message":"full"}}'
        head = [
            "HTTP/1.1 429 Too Many Requests",
            f"{spell('Content-Length')}: {len(body)}",
            f"{spell('Content-Type')}: application/json",
            f"{spell('Connection')}: keep-alive",
            f"{spell('Retry-After')}: 7",
        ]
        answer = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        server = stub(lambda conn, request, n: conn.sendall(answer))
        with server.client(timeout_s=10) as client:
            for _ in range(2):
                with pytest.raises(BackpressureError) as excinfo:
                    client.healthz()
                assert (excinfo.value.status, excinfo.value.retry_after_s) == (429, 7.0)
        assert server.connections == 1

    @pytest.mark.parametrize("spelling", ["Connection: close", "connection: CLOSE"])
    def test_connection_close_makes_the_next_call_reconnect(self, stub, spelling):
        answer = render_response(200, {"status": "ok"}, close=False).replace(
            b"Connection: keep-alive", spelling.encode()
        )
        server = stub(lambda conn, request, n: conn.sendall(answer))
        with server.client(timeout_s=10) as client:
            for _ in range(3):
                assert client.healthz() == {"status": "ok"}
        assert server.connections == 3

    def test_keep_alive_answers_share_one_connection(self, stub):
        server = stub(lambda conn, request, n: conn.sendall(OK))
        with server.client(timeout_s=10) as client:
            for _ in range(3):
                assert client.healthz() == {"status": "ok"}
        assert server.connections == 1


class TestTruncation:
    @pytest.mark.parametrize("then_close", [False, True], ids=["stalls", "hangs-up"])
    def test_a_truncated_body_is_a_server_error_within_the_timeout(self, stub, then_close):
        def cut_short(conn, request, n):
            conn.sendall(OK[:-4])
            if then_close:
                return False
            time.sleep(5)  # silent, socket open
            return False

        with stub(cut_short).client(timeout_s=0.5) as client:
            started = time.monotonic()
            with pytest.raises(ServerError, match="cut short"):
                client.healthz()
            assert time.monotonic() - started < 2.0

    def test_a_truncated_head_is_a_server_error(self, stub):
        def cut_head(conn, request, n):
            conn.sendall(OK[: OK.index(b"\r\n\r\n")])
            return False

        with stub(cut_head).client(timeout_s=5) as client, pytest.raises(ServerError):
            client.healthz()

    def test_no_answer_within_the_timeout_is_a_timeout(self, stub):
        def silent(conn, request, n):
            time.sleep(5)
            return False

        with stub(silent).client(timeout_s=0.3) as client, pytest.raises(TimeoutError):
            client.healthz()


class TestStaleSockets:
    def test_a_stale_reused_socket_is_retried_once(self, stub):
        def answer_then_hang_up(conn, request, n):
            conn.sendall(OK)
            return False  # closed behind the client's back, keep-alive advertised

        server = stub(answer_then_hang_up)
        with server.client(timeout_s=10) as client:
            assert client.healthz() == {"status": "ok"}
            time.sleep(0.05)  # the close reaches the client's socket
            assert client.healthz() == {"status": "ok"}
        assert server.connections == 2
        assert len(server.requests) == 2

    def test_a_fresh_socket_that_fails_is_not_retried(self, stub):
        server = stub(lambda conn, request, n: False)  # hang up on every request
        with server.client(timeout_s=10) as client, pytest.raises(ConnectionError):
            client.healthz()
        assert server.connections == 1
        assert len(server.requests) == 1

    def test_a_reused_socket_whose_retry_fails_raises(self, stub):
        def answer_once(conn, request, n):
            if n == 0:
                conn.sendall(OK)
            return False

        server = stub(answer_once)
        with server.client(timeout_s=10) as client:
            assert client.healthz() == {"status": "ok"}
            time.sleep(0.05)
            with pytest.raises(ConnectionError):
                client.healthz()
        assert server.connections == 2  # one retry, not two


#: Answer bodies that are not a JSON object: bad UTF-8, nesting past the
#: parser's stack, and a JSON list.
NOT_AN_OBJECT = [b"\xff\xfe\x00", b"[" * 100_000, b"[1]"]
NAMES = ["utf8", "deep", "list"]

#: Answers of the wrong shape, as ``(status, body, the client call that reads it)``.
WRONG_SHAPES = [
    *[
        pytest.param(status, body, "jobs", id=f"{name}-{status}")
        for name, body in zip(NAMES, NOT_AN_OBJECT)
        for status in (200, 400)
    ],
    pytest.param(400, b'{"error": 5}', "jobs", id="error-not-an-object-400"),
    pytest.param(400, b'{"error": {"code": 5}}', "jobs", id="code-not-a-string-400"),
    pytest.param(200, b'{"nope": 1}', "jobs", id="no-key-200"),
    pytest.param(200, b"# \xff\xfe\n", "metrics_text", id="text-not-utf8-200"),
]

HEALTHY = render_response(
    200,
    {"status": "ok", "uptime_s": 1.0, "queue_depth": 0, "queue_limit": 8, "jobs": 0},
    close=False,
)


def answering(status: int, body: bytes, headers: dict | None = None):
    answer = render_response(
        status, RawResponse(body, "application/json"), headers=headers, close=False
    )
    return lambda conn, request, n: conn.sendall(answer)


def answering_after_health(status: int, body: bytes):
    """A healthy ``/v1/healthz``, then *body* at *status* for everything else."""
    other = answering(status, body)

    def script(conn, request, n):
        if request.path == "/v1/healthz":
            return conn.sendall(HEALTHY)
        return other(conn, request, n)

    return script


FULL = b'{"error": {"code": "queue-full", "message": "job queue is full"}}'


class TestBodiesThatAreNotObjects:
    @pytest.mark.parametrize("status, body, call", WRONG_SHAPES)
    def test_each_is_a_bad_response(self, stub, body, status, call):
        with stub(answering(status, body)).client(timeout_s=10) as client:
            with pytest.raises(ServerError) as excinfo:
                getattr(client, call)()
        assert type(excinfo.value) is ServerError
        assert (excinfo.value.status, excinfo.value.code) == (502, "bad-response")

    @pytest.mark.parametrize(
        "value, seconds",
        [("2.5", 2.5), ("0", 0.0), ("soon", 1.0), ("", 1.0), ("nan", 1.0), ("inf", 1.0),
         ("-1", 1.0)],
        ids=["2.5", "0", "soon", "empty", "nan", "inf", "negative"],
    )
    def test_an_unusable_retry_after_is_the_default(self, stub, value, seconds):
        with stub(answering(429, FULL, {"Retry-After": value})).client(timeout_s=10) as client:
            with pytest.raises(BackpressureError) as excinfo:
                client.jobs()
        assert excinfo.value.code == "queue-full"
        assert excinfo.value.retry_after_s == seconds

    @pytest.mark.parametrize(
        "argv, script, line",
        [
            *[
                pytest.param(["jobs"], answering(200, body), "error: [502 bad-response] ", id=name)
                for name, body in zip(NAMES, NOT_AN_OBJECT)
            ],
            pytest.param(
                ["jobs"], answering(400, b'{"error": 5}'), "error: [502 bad-response] ",
                id="error-not-an-object",
            ),
            pytest.param(
                ["jobs"], answering_after_health(200, b'{"nope": 1}'),
                "error: [502 bad-response] ", id="no-key",
            ),
            pytest.param(
                ["jobs"], answering(200, b'{"nope": 1}'),
                "error: [502 bad-response] ", id="healthz-no-key",
            ),
            pytest.param(
                ["jobs"], answering_after_health(200, b'{"jobs": [{}]}'),
                "error: [502 bad-response] ", id="job-no-key",
            ),
            pytest.param(
                ["metrics", "--raw"], answering(200, b"# \xff\xfe\n"),
                "error: [502 bad-response] ", id="text-not-utf8",
            ),
            pytest.param(
                ["jobs"], answering(429, FULL, {"Retry-After": "soon"}),
                "error: daemon queue is full; retry in 1s", id="retry-after-not-a-number",
            ),
        ],
    )
    def test_the_cli_prints_one_error_line(self, stub, argv, script, line, tmp_path):
        server = stub(script)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--port", str(server.port)],
            cwd=tmp_path,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        (only,) = proc.stderr.splitlines()
        assert proc.returncode == 1 and only.startswith(line)

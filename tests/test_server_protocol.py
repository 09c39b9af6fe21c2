"""Unit tests for the daemon's HTTP framing."""

import ast
import asyncio
import json
from pathlib import Path

import pytest

from repro.server.protocol import ApiError, HttpRequest, read_request, render_response


def parse(raw: bytes) -> HttpRequest | None:
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(_run())


def parse_error(raw: bytes) -> ApiError:
    with pytest.raises(ApiError) as excinfo:
        parse(raw)
    return excinfo.value


class TestReadRequest:
    def test_get(self):
        req = parse(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/v1/healthz"
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_post_with_body(self):
        body = json.dumps({"kind": "schedule"}).encode()
        raw = (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        req = parse(raw)
        assert req.method == "POST"
        assert req.json() == {"kind": "schedule"}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_request_is_400(self):
        assert parse_error(b"GET /v1/healthz HTTP/1.1\r\n").status == 400

    def test_malformed_request_line(self):
        assert parse_error(b"NONSENSE\r\n\r\n").status == 400

    def test_bad_content_length(self):
        err = parse_error(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert err.status == 400

    def test_body_shorter_than_content_length(self):
        err = parse_error(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nab")
        assert err.status == 400

    def test_oversized_body_rejected(self):
        err = parse_error(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        assert err.status == 413
        assert err.code == "payload-too-large"

    def test_chunked_rejected(self):
        err = parse_error(b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert err.status == 400


class TestJsonBody:
    def test_non_object_body_rejected(self):
        req = HttpRequest("POST", "/v1/jobs", body=b"[1, 2]")
        with pytest.raises(ApiError, match="JSON object"):
            req.json()

    def test_malformed_json_rejected(self):
        req = HttpRequest("POST", "/v1/jobs", body=b"{nope")
        with pytest.raises(ApiError, match="malformed"):
            req.json()

    @pytest.mark.parametrize(
        "body",
        [
            b"\xff\xfe{}",  # not UTF-8
            b'{"seed": ' + b"7" * 5000 + b"}",  # past the interpreter's integer digit limit
            b"[" * 100_000,  # deeper than the parser's stack
        ],
        ids=["encoding", "huge-integer", "deep-nesting"],
    )
    def test_unparseable_body_is_a_400_not_a_500(self, body):
        with pytest.raises(ApiError, match="malformed") as excinfo:
            HttpRequest("POST", "/v1/jobs", body=body).json()
        assert excinfo.value.status == 400

    def test_empty_body_rejected(self):
        with pytest.raises(ApiError):
            HttpRequest("POST", "/v1/jobs").json()


class TestRenderResponse:
    def test_roundtrip_shape(self):
        raw = render_response(202, {"job": {"id": "j1"}}, headers={"X-Request-Id": "abc"})
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 202 Accepted"
        assert "Connection: close" in lines
        assert "X-Request-Id: abc" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert json.loads(body) == {"job": {"id": "j1"}}

    def test_error_payload_shape(self):
        err = ApiError(429, "queue-full", "try later", headers={"Retry-After": "1"})
        assert err.to_payload() == {"error": {"code": "queue-full", "message": "try later"}}
        assert err.headers == {"Retry-After": "1"}


class TestOneCodec:
    def test_framing_literals_live_only_in_the_codec(self):
        """Every status-line, Content-Length and Transfer-Encoding decision is protocol.py's."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        owners = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text())
            scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
            }
            literals = [
                node.value.decode("latin-1") if isinstance(node.value, bytes) else node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, (str, bytes))
                and id(node) not in docstrings
            ]
            words = ("http/1.", "content-length", "transfer-encoding")
            if any(word in text.lower() for text in literals for word in words):
                owners.append(str(path.relative_to(src)))
        assert owners == ["server/protocol.py"]

"""Minimal JSON-over-HTTP/1.1 framing for the CBES service.

The service speaks just enough HTTP for its fixed API surface:
``GET``/``POST`` with JSON bodies both ways, and HTTP/1.1 keep-alive
(the connection loop in :mod:`repro.server.http` serves multiple
requests per connection; ``render_response(close=True)`` opts any
response out).  Kept stdlib-only and asyncio-stream based so the service
has no dependencies beyond what the library already requires.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from repro._util import encode_json

__all__ = ["ApiError", "HttpRequest", "RawResponse", "read_request", "render_response"]

#: Upper bounds keeping one misbehaving client from ballooning memory.
#: The body cap is the *default*; the daemon passes its configured limit
#: (``--max-body-bytes``) into :func:`read_request` per call.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Most job ids one ``GET /v1/jobs?ids=...`` lookup may name; the client
#: splits longer lists into several requests.
MAX_LOOKUP_IDS = 512

#: When rejecting an oversized body we still *drain* it (in chunks of
#: this size) so the connection stays framed for keep-alive reuse.
_DRAIN_CHUNK = 64 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class ApiError(Exception):
    """An error the daemon reports to the client as a JSON error document.

    ``code`` is the machine-readable error tag documented in
    ``docs/SERVICE.md``; ``message`` is for humans; ``headers`` lets a
    handler attach response headers (e.g. ``Retry-After`` on 429).
    ``recoverable`` marks parse-stage errors after which the connection
    is still correctly framed (the offending request was fully consumed)
    and may keep serving keep-alive requests.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        headers: dict[str, str] | None = None,
        recoverable: bool = False,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = dict(headers or {})
        self.recoverable = recoverable

    def to_payload(self) -> dict:
        return {"error": {"code": self.code, "message": self.message}}


@dataclass(frozen=True)
class RawResponse:
    """A response body that goes out verbatim under its own content type.

    Used by the metrics endpoint (Prometheus text exposition) and by
    the job documents, whose stored result is already JSON.
    """

    body: bytes
    content_type: str = "text/plain; charset=utf-8"


@dataclass
class HttpRequest:
    """One parsed request.

    ``request_id``, ``query`` and ``params`` are filled in by the
    service core (:mod:`repro.server.http`) when it routes the request:
    the id this request is logged and answered under, the parsed query
    string, and the values bound by the route template (``{"id": ...}``
    for ``/v1/jobs/{id}``).
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    request_id: str = ""
    query: dict[str, list[str]] = field(default_factory=dict)
    params: dict[str, str] = field(default_factory=dict)

    def json(self) -> dict:
        """The body parsed as a JSON object; raises :class:`ApiError` (400)."""
        if not self.body:
            raise ApiError(400, "bad-request", "request body must be a JSON object")
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError: bad UTF-8, bad JSON, or an integer past the digit
            # limit; RecursionError: nesting deeper than the parser's stack.
            raise ApiError(400, "bad-request", f"malformed JSON body: {exc}") from None
        if not isinstance(doc, dict):
            raise ApiError(400, "bad-request", "request body must be a JSON object")
        return doc


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int = MAX_BODY_BYTES
) -> HttpRequest | None:
    """Parse one HTTP request off *reader*.

    Returns ``None`` on a clean EOF before any bytes (client closed the
    idle connection); raises :class:`ApiError` on malformed or oversized
    input.  *max_body_bytes* caps the declared ``Content-Length``: an
    oversized body is drained (so the connection stays framed) and
    answered with a *recoverable* 413 — keep-alive survives it.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ApiError(400, "bad-request", "truncated HTTP request") from None
    except asyncio.LimitOverrunError:
        raise ApiError(413, "payload-too-large", "request header section too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise ApiError(413, "payload-too-large", "request header section too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ApiError(400, "bad-request", f"malformed request line: {lines[0]!r}")
    method, path, _version = parts

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ApiError(400, "bad-request", f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ApiError(400, "bad-request", "malformed Content-Length header") from None
        if length < 0:
            raise ApiError(400, "bad-request", "malformed Content-Length header")
        if length > max_body_bytes:
            # Consume the declared body before erroring: the next bytes
            # on the socket are then a fresh request, so the daemon can
            # answer 413 and keep the connection open.  A client that
            # hangs up mid-body still gets the 413, but the connection
            # is no longer framed, so that one is not recoverable.
            remaining = length
            drained = True
            while remaining > 0:
                chunk = await reader.read(min(_DRAIN_CHUNK, remaining))
                if not chunk:
                    drained = False
                    break
                remaining -= len(chunk)
            raise ApiError(
                413,
                "payload-too-large",
                f"request body of {length} bytes exceeds the {max_body_bytes} byte limit",
                recoverable=drained,
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ApiError(400, "bad-request", "request body shorter than Content-Length") from None
    elif headers.get("transfer-encoding"):
        raise ApiError(400, "bad-request", "chunked request bodies are not supported")
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


def render_response(
    status: int,
    payload: dict | RawResponse,
    *,
    headers: dict[str, str] | None = None,
    close: bool = True,
) -> bytes:
    """Serialize a response.

    *payload* is normally a JSON-ready dict (sent as compact JSON); a
    :class:`RawResponse` ships its bytes verbatim under its own content
    type.  ``close``
    picks the connection semantics: the default advertises
    ``Connection: close`` (one request per connection, the historical
    behavior); ``close=False`` advertises ``keep-alive`` so the daemon's
    request loop can serve further requests on the same socket.
    """
    if isinstance(payload, RawResponse):
        body = payload.body
        content_type = payload.content_type
    else:
        body = encode_json(payload)
        content_type = "application/json"
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

"""The service's one JSON-over-HTTP/1.1 codec.

The service speaks just enough HTTP for its fixed API surface:
``GET``/``POST`` with JSON bodies both ways, and HTTP/1.1 keep-alive
(the connection loop in :mod:`repro.server.http` serves multiple
requests per connection; ``render_response(close=True)`` opts any
response out).  It is the one codec of the daemon, the router's replica
pool and :class:`~repro.server.client.CbesClient`, which each do only
their own I/O; a body is framed by ``Content-Length`` alone.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field

from repro._util import encode_json

__all__ = [
    "ApiError",
    "HttpRequest",
    "RawResponse",
    "decode_object",
    "frame_request",
    "lookup_body",
    "parse_head",
    "read_request",
    "render_response",
    "response_status",
    "split_lookup",
]

#: Upper bounds keeping one misbehaving client from ballooning memory.
#: The body cap is the *default*; the daemon passes its configured limit
#: (``--max-body-bytes``) into :func:`read_request` per call.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024
#: The largest answer body the router or a client reads.
MAX_RESPONSE_BODY_BYTES = 64 * 1024 * 1024
#: Most job ids one ``GET /v1/jobs?ids=...`` lookup may name; the client
#: splits longer lists into several requests.
MAX_LOOKUP_IDS = 512
#: The literals that frame a lookup's answer, ``{"missing":[...],"jobs":[...]}``.
LOOKUP_MISSING, LOOKUP_JOBS = b'{"missing":', b',"jobs":['

#: When rejecting an oversized body we still *drain* it (in chunks of
#: this size) so the connection stays framed for keep-alive reuse.
_DRAIN_CHUNK = 64 * 1024
#: The protocol versions a start line may name, and a status code.
_VERSION = re.compile(r"HTTP/1\.[0-9]")
_STATUS = re.compile(r"[0-9]{3}")

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
    502: "Bad Gateway",
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
        try:
            return decode_object(self.body)
        except ValueError as exc:
            raise ApiError(400, "bad-request", f"request {exc}") from None


def decode_object(raw: bytes) -> dict:
    """*raw* as a UTF-8 JSON object; ``ValueError`` on anything else."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested past the stack
        raise ValueError(f"body is malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("body must be a JSON object")
    return doc


def frame_request(method: str, path: str, host: str, body: bytes | None, headers: dict) -> bytes:
    """A request's bytes: ``Content-Length`` only with a *body*, then *headers* as given."""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")


def parse_head(head: bytes) -> tuple[list[str], dict[str, str], int | None]:
    """(start-line words, headers by lower-cased name, ``Content-Length`` or
    ``None``) of a head through its blank line.  ``ValueError`` past
    :data:`MAX_HEADER_BYTES`, on a line without a colon, a repeated length
    or one not all ASCII digits, and on any ``Transfer-Encoding``."""
    if len(head) > MAX_HEADER_BYTES:
        raise ValueError("header section too large")
    start, *lines = head.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line: {line!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            raise ValueError("repeated Content-Length header")
        headers[name] = value.strip()
    if "transfer-encoding" in headers:
        raise ValueError("Transfer-Encoding is not supported; send Content-Length")
    length = headers.get("content-length")
    if length is not None and not (length.isascii() and length.isdigit()):
        raise ValueError(f"malformed Content-Length {length!r}")
    return start.split(" ", 2), headers, None if length is None else int(length)


def response_status(words: list[str]) -> int:
    """An answer's status code; ``ValueError`` unless ``HTTP/1.x`` and three ASCII digits."""
    if len(words) < 2 or not _VERSION.fullmatch(words[0]) or not _STATUS.fullmatch(words[1]):
        raise ValueError(f"malformed status line {' '.join(words)!r}")
    return int(words[1])


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
    try:
        words, headers, length = parse_head(head)
    except ValueError as exc:
        raise ApiError(400, "bad-request", str(exc)) from None
    if len(words) != 3 or not _VERSION.fullmatch(words[2]):
        raise ApiError(400, "bad-request", f"malformed request line: {' '.join(words)!r}")
    method, path, _version = words

    body = b""
    if length:
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


def lookup_body(missing: list[str], jobs: list[bytes]) -> bytes:
    """A ``GET /v1/jobs?ids=...`` answer: the named ids not held, then
    the encoded job documents, spliced in as they are."""
    return LOOKUP_MISSING + encode_json(missing) + LOOKUP_JOBS + b",".join(jobs) + b"]}"


def split_lookup(body: bytes) -> tuple[list[str], bytes]:
    """(missing ids, comma-joined job documents) of a :func:`lookup_body`.

    Only ``missing`` is decoded.  ``,"jobs":[`` cannot occur inside an
    encoded JSON string (its quotes are escaped), so its first
    occurrence ends the list.  Raises ``ValueError`` on any other shape.
    """
    cut = body.find(LOOKUP_JOBS)
    if cut < 0 or not body.startswith(LOOKUP_MISSING) or not body.endswith(b"]}"):
        raise ValueError('not {"missing":[...],"jobs":[...]}')
    missing = json.loads(body[len(LOOKUP_MISSING) : cut])
    if not isinstance(missing, list) or not all(isinstance(i, str) for i in missing):
        raise ValueError("'missing' is not a list of job ids")
    return missing, body[cut + len(LOOKUP_JOBS) : -2]

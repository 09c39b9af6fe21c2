"""Asyncio HTTP/1.1 client transport for the fleet router.

One :class:`BackendPool` per replica: it dials ``asyncio``
stream connections on demand, keeps idle ones for reuse (the daemon
speaks keep-alive), and mirrors :class:`~repro.server.client.CbesClient`'s
stale-socket discipline — a *reused* connection that dies before any
response bytes arrive never reached a handler, so the request is retried
once on a fresh connection; fresh-connection failures surface
immediately.  Stdlib only, usable from any number of concurrent router
handlers (each request checks a connection out of the pool).
"""

from __future__ import annotations

import asyncio
import json

__all__ = ["BackendError", "BackendPool", "read_response"]

#: Hard caps on response framing — the replicas are trusted, but a
#: misconfigured backend must not balloon the router.
MAX_RESPONSE_HEADER_BYTES = 64 * 1024
MAX_RESPONSE_BODY_BYTES = 64 * 1024 * 1024
#: Idle connections a pool keeps for reuse; extras are closed on release.
MAX_IDLE = 4


class BackendError(RuntimeError):
    """A replica could not be reached or answered unparseable bytes."""

    def __init__(self, backend: str, message: str):
        super().__init__(f"{backend}: {message}")
        self.backend = backend


async def read_response(
    reader: asyncio.StreamReader, backend: str
) -> tuple[int, dict[str, str], bytes]:
    """Parse one HTTP response; returns (status, headers, body)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        raise BackendError(backend, f"truncated response head: {exc}") from None
    if len(head) > MAX_RESPONSE_HEADER_BYTES:
        raise BackendError(backend, "response header section too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise BackendError(backend, f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise BackendError(backend, f"malformed status line {lines[0]!r}") from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise BackendError(backend, "malformed Content-Length in response") from None
        if not 0 <= length <= MAX_RESPONSE_BODY_BYTES:
            raise BackendError(backend, f"implausible response length {length}")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise BackendError(backend, "response body shorter than Content-Length") from None
    return status, headers, body


class BackendPool:
    """Pooled keep-alive connections to one replica.

    Parameters
    ----------
    backend:
        ``host:port`` of the replica (also its identity in errors).
    timeout_s:
        Per-exchange deadline (connect, send, and read each response).
    """

    def __init__(self, backend: str, *, timeout_s: float = 30.0):
        host, _, port_text = backend.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(f"backend must be host:port, got {backend!r}")
        self.backend = backend
        self.host = host
        self.port = int(port_text)
        self.timeout_s = timeout_s
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._closed = False

    async def _dial(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout_s
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise BackendError(self.backend, f"connect failed: {exc}") from None

    def _release(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        if self._closed or len(self._idle) >= MAX_IDLE:
            writer.close()
            return
        self._idle.append((reader, writer))

    async def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange with the replica; returns (status, headers, body).

        Reuses a pooled connection when one is idle; a reused socket
        that dies before response bytes arrive is retried once on a
        fresh connection (the request never reached a handler).
        *headers* are extra request headers (the router's
        ``X-Request-Id``); the caller vouches for their framing.
        """
        data = json.dumps(body).encode("utf-8") if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.backend}\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
        if data:
            head += "Content-Type: application/json\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        frame = (head + "\r\n").encode("latin-1") + data
        for _attempt in (0, 1):
            reused = bool(self._idle)
            if reused:
                reader, writer = self._idle.pop()
            else:
                reader, writer = await self._dial()
            try:
                writer.write(frame)
                await asyncio.wait_for(writer.drain(), self.timeout_s)
                status, headers, payload = await asyncio.wait_for(
                    read_response(reader, self.backend), self.timeout_s
                )
            except (BackendError, OSError, asyncio.TimeoutError) as exc:
                writer.close()
                if reused:
                    continue  # stale keep-alive socket: retry once, fresh
                if isinstance(exc, BackendError):
                    raise
                raise BackendError(self.backend, f"request failed: {exc}") from None
            if headers.get("connection", "").lower() == "close":
                writer.close()
            else:
                self._release(reader, writer)
            return status, headers, payload
        raise BackendError(self.backend, "retry loop exhausted")  # pragma: no cover

    async def request_json(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict]:
        """:meth:`request` with the body parsed as a JSON object."""
        status, _headers, raw = await self.request(method, path, body, headers=headers)
        if not raw:
            return status, {}
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BackendError(self.backend, f"non-JSON response body: {exc}") from None
        if not isinstance(doc, dict):
            raise BackendError(self.backend, "response body is not a JSON object")
        return status, doc

    def close(self) -> None:
        """Close every idle connection (in-flight ones close themselves)."""
        self._closed = True
        while self._idle:
            _reader, writer = self._idle.pop()
            writer.close()

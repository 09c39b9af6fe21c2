"""Asyncio client transport for the fleet router.

One :class:`BackendPool` per replica: it dials ``asyncio``
stream connections on demand, keeps idle ones for reuse (the daemon
speaks keep-alive), and mirrors :class:`~repro.server.client.CbesClient`'s
stale-socket discipline — a *reused* connection that dies before any
response bytes arrive never reached a handler, so the request is retried
once on a fresh connection; fresh-connection failures surface
immediately.  Stdlib only, usable from any number of concurrent router
handlers (each request checks a connection out of the pool).  Messages
are :mod:`repro.server.protocol`'s; this module does only their I/O.
"""

from __future__ import annotations

import asyncio

from repro._util import encode_json
from repro.server.protocol import (
    MAX_RESPONSE_BODY_BYTES,
    ApiError,
    frame_request,
    parse_head,
    response_status,
)

__all__ = ["BackendError", "BackendPool", "read_response"]

#: Idle connections a pool keeps for reuse; extras are closed on release.
MAX_IDLE = 4


class BackendError(ApiError):
    """A replica could not be reached or answered unusable bytes (a 502, never a 500)."""

    def __init__(self, backend: str, message: str):
        super().__init__(502, "replica-error", f"{backend}: {message}")
        self.backend = backend


async def read_response(
    reader: asyncio.StreamReader, backend: str
) -> tuple[int, dict[str, str], bytes]:
    """(status, headers, body) of one answer, read by :mod:`repro.server.protocol`'s
    rules; anything else is a :class:`BackendError`."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        raise BackendError(backend, f"truncated response head: {exc}") from None
    try:
        words, headers, length = parse_head(head)
        status = response_status(words)
    except ValueError as exc:
        raise BackendError(backend, str(exc)) from None
    if length is None:
        headers["connection"] = "close"
        try:  # the end of the connection ends the body, within the cap
            await reader.readexactly(MAX_RESPONSE_BODY_BYTES + 1)
        except asyncio.IncompleteReadError as exc:
            return status, headers, exc.partial
        raise BackendError(backend, "response body too large")
    if length > MAX_RESPONSE_BODY_BYTES:
        raise BackendError(backend, f"implausible response length {length}")
    try:
        return status, headers, await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise BackendError(backend, f"response body cut short of {length} bytes") from None


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
        connect = asyncio.ensure_future(asyncio.open_connection(self.host, self.port))
        try:
            done, _ = await asyncio.wait((connect,), timeout=self.timeout_s)
        finally:
            if not connect.done():
                connect.cancel()
        if not done:
            raise BackendError(self.backend, f"connect failed: no answer in {self.timeout_s:g}s")
        try:
            return connect.result()
        except OSError as exc:
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
        data = encode_json(body) if body is not None else None
        extra = {"Content-Type": "application/json"} if data else {}
        frame = frame_request(method, path, self.backend, data, {**extra, **(headers or {})})
        loop = asyncio.get_running_loop()
        for _attempt in (0, 1):
            reused = bool(self._idle)
            if reused:
                reader, writer = self._idle.pop()
            else:
                reader, writer = await self._dial()
            # One timer bounds the send plus the read: at expiry it
            # aborts the socket, and the read ends short.
            deadline = loop.call_later(self.timeout_s, writer.transport.abort)
            try:
                writer.write(frame)
                await writer.drain()
                status, headers, payload = await read_response(reader, self.backend)
                if loop.time() >= deadline.when():  # the timer may have ended a body read to EOF
                    raise BackendError(self.backend, "answer cut short at the deadline")
            except (BackendError, OSError) as exc:
                writer.close()
                if reused:
                    continue  # stale keep-alive socket: retry once, fresh
                if loop.time() >= deadline.when():
                    raise BackendError(
                        self.backend, f"no response in {self.timeout_s:g}s"
                    ) from None
                if isinstance(exc, BackendError):
                    raise
                raise BackendError(self.backend, f"request failed: {exc}") from None
            finally:
                deadline.cancel()
            if headers.get("connection", "").lower() == "close":
                writer.close()
            else:
                self._release(reader, writer)
            return status, headers, payload
        raise BackendError(self.backend, "retry loop exhausted")  # pragma: no cover

    def close(self) -> None:
        """Close every idle connection (in-flight ones close themselves)."""
        self._closed = True
        while self._idle:
            _reader, writer = self._idle.pop()
            writer.close()

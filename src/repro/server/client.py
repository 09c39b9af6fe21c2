"""Blocking client for the CBES scheduling daemon.

``CbesClient`` is the reference consumer of the daemon's JSON-over-HTTP
API — used by the ``repro submit`` / ``repro jobs`` CLI commands, the
tests, and the throughput benchmark.  Stdlib only.

The client keeps **one pooled connection** alive across calls (the
daemon speaks keep-alive), so polling loops like :meth:`wait` stop
churning sockets.  It speaks the codec the daemon and the router use
(:mod:`repro.server.protocol`) on a plain socket, each request in one
``sendall``; an answer the codec refuses, or one cut short, is a
:class:`ServerError` (``bad-response``).  A reused socket the daemon
has since closed surfaces as a send-time error or an end-of-file before
any response bytes — such a request never reached a handler, so the
client retries it once, transparently, on a fresh connection.
Fresh-connection failures (daemon down, port wrong) are raised
immediately.
"""

from __future__ import annotations

import json
import math
import socket
import time
from collections.abc import Iterator
from typing import Any
from urllib.parse import quote

from repro._util import check_positive
from repro.server.protocol import (
    MAX_HEADER_BYTES,
    MAX_LOOKUP_IDS,
    MAX_RESPONSE_BODY_BYTES,
    decode_object,
    frame_request,
    parse_head,
    response_status,
)

__all__ = ["ServerError", "BackpressureError", "JobFailed", "CbesClient", "read_response"]


class ServerError(RuntimeError):
    """The daemon answered with an error document."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class BackpressureError(ServerError):
    """The daemon's job queue is full (HTTP 429); retry after a delay."""

    def __init__(self, status: int, code: str, message: str, retry_after_s: float):
        super().__init__(status, code, message)
        self.retry_after_s = retry_after_s


class JobFailed(RuntimeError):
    """A polled job finished in the ``failed`` state."""

    def __init__(self, job: dict):
        super().__init__(f"job {job.get('id')} failed: {job.get('error')}")
        self.job = job


def read_response(rfile) -> tuple[int, dict, bytes]:
    """(status, headers, body) of one answer off the binary file *rfile*, read
    by :mod:`repro.server.protocol`'s rules; one that is malformed, or that
    ends, fails or falls silent before it is whole, is a :class:`ServerError`.
    """
    head = b""
    try:
        while not head.endswith(b"\r\n\r\n") and len(head) <= MAX_HEADER_BYTES:
            line = rfile.readline(MAX_HEADER_BYTES + 1 - len(head))
            if not line:
                raise ValueError("response head cut short")
            head += line
        words, headers, length = parse_head(head)
        status = response_status(words)
        if length is None:  # the answer ends with its connection
            headers["connection"] = "close"
        elif length > MAX_RESPONSE_BODY_BYTES:
            raise ValueError(f"implausible response length {length}")
        body = rfile.read(MAX_RESPONSE_BODY_BYTES + 1 if length is None else length)
        if len(body) > MAX_RESPONSE_BODY_BYTES:
            raise ValueError("response body too large")
        if length is not None and len(body) < length:
            raise ValueError(f"response body cut short at {len(body)} of {length} bytes")
    except ValueError as exc:
        raise _bad_response(str(exc)) from None
    except OSError as exc:  # reset, or silent past the timeout
        raise _bad_response(f"response cut short: {exc}") from None
    return status, headers, body


def _bad_response(message: str) -> ServerError:
    """The error of an answer this client cannot read."""
    return ServerError(502, "bad-response", message)


#: The wait a 429 asks for when its ``Retry-After`` names none it can use.
_DEFAULT_RETRY_AFTER_S = 1.0


def _retry_after(value: str | None) -> float:
    """A 429's ``Retry-After`` seconds: a finite number >= 0, else the default."""
    try:
        seconds = float(value) if value is not None else _DEFAULT_RETRY_AFTER_S
    except ValueError:
        return _DEFAULT_RETRY_AFTER_S
    return seconds if math.isfinite(seconds) and seconds >= 0 else _DEFAULT_RETRY_AFTER_S


def _id_chunks(ids: list[str]) -> Iterator[str]:
    """*ids* as ``ids=`` values that each fit one request.

    A chunk holds at most :data:`MAX_LOOKUP_IDS` ids and half of
    :data:`MAX_HEADER_BYTES`; the other half is left to the rest of the
    request line and the headers (a router adds its own on the way).
    """
    chunk: list[str] = []
    size = 0
    for quoted in (quote(job_id, safe="") for job_id in ids):
        if chunk and (len(chunk) == MAX_LOOKUP_IDS or size + len(quoted) >= MAX_HEADER_BYTES // 2):
            yield ",".join(chunk)
            chunk, size = [], 0
        chunk.append(quoted)
        size += len(quoted) + 1
    if chunk:
        yield ",".join(chunk)


def _body(**fields) -> dict:
    """A request document: *fields* minus the ``None`` ones.

    Every optional field of the wire contract
    (:mod:`repro.server.serialize`) has its default on the server, so a
    builder passes what it was given and restates none of them.
    """
    return {name: value for name, value in fields.items() if value is not None}


class CbesClient:
    """Talks to one scheduling daemon over a pooled keep-alive connection.

    Parameters
    ----------
    host, port:
        The daemon's bind address.
    timeout_s:
        Socket timeout per request.  This and every wait's ``timeout_s``
        and ``poll_interval_s`` must be finite and > 0 (``ValueError``).

    The client is also a context manager; leaving the ``with`` block
    (or calling :meth:`close`) drops the pooled connection.  Not
    thread-safe — use one client per thread.
    """

    #: Errors that mean a *reused* socket went stale before any response
    #: bytes arrived (daemon restarted, keep-alive bound or idle timeout
    #: hit between our calls); the request never reached a handler, so
    #: one retry on a fresh connection is safe — even for POSTs.
    _STALE_ERRORS = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, *, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout_s = check_positive(timeout_s, "timeout_s")
        self._sock: socket.socket | None = None
        self._rfile = None

    # -- connection lifecycle -------------------------------------------
    def close(self) -> None:
        """Drop the pooled connection (the next request reconnects)."""
        sock, rfile, self._sock, self._rfile = self._sock, self._rfile, None, None
        for part in (rfile, sock):
            if part is not None:
                try:
                    part.close()
                except OSError:
                    pass

    def __enter__(self) -> "CbesClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._rfile = sock, sock.makefile("rb")

    def _roundtrip(
        self, method: str, path: str, data: bytes | None, headers: dict[str, str]
    ) -> tuple[int, dict, bytes]:
        """One HTTP exchange; returns (status, lower-cased response headers, body).

        Reuses the pooled connection, reconnecting transparently when a
        reused socket turns out stale (see :attr:`_STALE_ERRORS`).
        """
        frame = frame_request(method, path, f"{self.host}:{self.port}", data, headers)
        for _attempt in (0, 1):
            reused = self._sock is not None
            if not reused:
                self._connect()
            try:
                self._sock.sendall(frame)
                answered = bool(self._rfile.peek(1))
            except self._STALE_ERRORS:
                answered = False
            except BaseException:
                self.close()
                raise
            if not answered:
                self.close()
                if reused:
                    continue  # retry once on a fresh connection
                raise ConnectionResetError(
                    f"{self.host}:{self.port} closed the connection without answering"
                )
            try:
                status, response_headers, body = read_response(self._rfile)
            except BaseException:
                self.close()
                raise
            if response_headers.get("connection", "").lower() == "close":
                self.close()
            return status, response_headers, body
        raise ServerError(599, "unreachable", "retry loop exhausted")  # pragma: no cover

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        """The answer's JSON object.

        An answer of the wrong shape — not a JSON object, or an error
        document whose ``error`` is not ``{"code": str, "message": str}``
        — is ``ServerError(502, "bad-response")``.
        """
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        status, response_headers, raw = self._roundtrip(method, path, data, headers)
        try:
            payload = decode_object(raw) if raw else {}
        except ValueError as exc:
            raise _bad_response(str(exc)) from None
        if status >= 400:
            error = payload.get("error", {})
            code = error.get("code", "unknown") if isinstance(error, dict) else None
            message = error.get("message", "") if isinstance(error, dict) else None
            if not (isinstance(code, str) and isinstance(message, str)):
                raise _bad_response(f"{status} error document of the wrong shape: {error!r:.200}")
            if status == 429:
                raise BackpressureError(
                    status, code, message, _retry_after(response_headers.get("retry-after"))
                )
            raise ServerError(status, code, message)
        return payload

    def _member(self, method: str, path: str, key: str, body: dict | None = None) -> Any:
        """Member *key* of the answer; an answer without it is a bad response."""
        payload = self._request(method, path, body)
        try:
            return payload[key]
        except KeyError:
            raise _bad_response(f"answer lacks {key!r}") from None

    def _request_text(self, method: str, path: str) -> str:
        """Fetch a non-JSON (plain text) endpoint body."""
        status, _headers, raw = self._roundtrip(method, path, None, {})
        if status >= 400:
            raise ServerError(status, "error", raw[:200].decode("latin-1"))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _bad_response(f"body is not UTF-8: {exc}") from None

    # -- plain endpoints ------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        """The daemon's metric registry as a structured JSON dump."""
        return self._member("GET", "/v1/metrics?format=json", "metrics")

    def metrics_text(self) -> str:
        """The daemon's metrics in Prometheus text exposition format."""
        return self._request_text("GET", "/v1/metrics")

    def traces(self, limit: int | None = None) -> list[dict]:
        """Recently completed traces, newest first."""
        path = "/v1/traces" if limit is None else f"/v1/traces?limit={limit}"
        return self._member("GET", path, "traces")

    def snapshot(self) -> dict:
        return self._member("GET", "/v1/snapshot", "snapshot")

    def profiles(self) -> list[str]:
        return self._member("GET", "/v1/profiles", "applications")

    # -- jobs -----------------------------------------------------------
    def submit(self, kind: str, **payload) -> dict:
        """Submit a job; returns the queued job document (with ``id``)."""
        return self._member("POST", "/v1/jobs", "job", _body(kind=kind, **payload))

    def submit_batch(self, jobs: list[dict]) -> list[dict]:
        """Submit N job documents in one request (``POST /v1/jobs:batch``).

        Each entry is a full job document (``{"kind": ..., "app": ...}``,
        exactly what :meth:`submit` would send).  Acceptance is atomic:
        either every job is queued (returns their documents, in request
        order) or none is — 400 on the first invalid entry, 429
        (:class:`BackpressureError`) when the queue lacks room for the
        whole batch.
        """
        return self._member("POST", "/v1/jobs:batch", "jobs", {"jobs": jobs})

    def job(self, job_id: str, *, wait_s: float | None = None) -> dict:
        """The job document; with *wait_s*, the service holds the answer
        until the job is done or failed, or *wait_s* has passed."""
        path = f"/v1/jobs/{job_id}" if wait_s is None else f"/v1/jobs/{job_id}?wait_s={wait_s}"
        return self._member("GET", path, "job")

    def jobs(
        self,
        *,
        state: str | None = None,
        limit: int | None = None,
        after: str | None = None,
        ids: list[str] | None = None,
        wait_s: float | None = None,
    ) -> list[dict]:
        """List jobs, optionally filtered by *state* and paged.

        *after* is a cursor: only jobs submitted strictly after the job
        with that id are returned; *limit* caps the page size (applied
        after filtering).

        *ids* looks up just those jobs instead of listing the store; ids
        the service does not hold (unknown, or evicted past the TTL) are
        absent from the answer.  A long list is sent as several requests
        that each fit the service's header and id-count limits.  With
        *wait_s* the service holds a lookup until every job it names is
        done or one failed, or *wait_s* has passed; the requests of one
        call share the *wait_s* between them.
        """
        params = [
            f"{name}={quote(str(value), safe='')}"
            for name, value in _body(state=state, limit=limit, after=after).items()
        ]
        if ids is None:
            if wait_s is not None:
                params.append(f"wait_s={wait_s}")
            path = "/v1/jobs" + ("?" + "&".join(params) if params else "")
            return self._member("GET", path, "jobs")
        found: list[dict] = []
        until = None if wait_s is None else time.monotonic() + wait_s
        for chunk in _id_chunks(ids):
            held = [] if until is None else [f"wait_s={max(0.0, until - time.monotonic())}"]
            path = "/v1/jobs?" + "&".join([*params, "ids=" + chunk, *held])
            found.extend(self._member("GET", path, "jobs"))
        return found

    def _hold(self, interval: float, deadline: float) -> float:
        """The ``wait_s`` of the next ask: one poll interval, never past the
        deadline, and short enough that the answer beats the socket timeout."""
        return max(0.0, min(interval, deadline - time.monotonic(), self.timeout_s / 2))

    @staticmethod
    def _pace(asked: float, interval: float, deadline: float, still_pending: str) -> None:
        """Sleep until *interval* after the ask at *asked*, never past *deadline*;
        ``TimeoutError`` once there."""
        now = time.monotonic()
        if now >= deadline:
            raise TimeoutError(still_pending)
        time.sleep(max(0.0, min(asked + interval, deadline) - now))

    def wait(self, job_id: str, *, timeout_s: float = 120.0, poll_interval_s: float = 0.05) -> dict:
        """Wait until the job finishes; returns the ``done`` job document.

        Each ask is held by the service for up to *poll_interval_s*
        (``wait_s``), so the answer comes as the job finishes, not at the
        next poll.  A pending job is never asked about again sooner than
        *poll_interval_s* after the last ask.  Raises :class:`JobFailed`
        if the job failed and ``TimeoutError`` if it is still pending at
        the deadline.
        """
        deadline = time.monotonic() + check_positive(timeout_s, "timeout_s")
        interval = check_positive(poll_interval_s, "poll_interval_s")
        while True:
            asked = time.monotonic()
            job = self.job(job_id, wait_s=self._hold(interval, deadline))
            state = job["state"]
            if state == "done":
                return job
            if state == "failed":
                raise JobFailed(job)
            pending = f"job {job_id} still {state} after {timeout_s:.0f}s"
            self._pace(asked, interval, deadline, pending)

    def wait_many(
        self,
        job_ids: list[str],
        *,
        timeout_s: float = 300.0,
        poll_interval_s: float = 0.05,
    ) -> list[dict]:
        """Wait until every job in *job_ids* finishes; docs in input order.

        One held ``GET /v1/jobs?ids=...`` lookup per sweep, naming only
        the jobs still pending: a sweep costs what the batch costs,
        however many finished jobs the service holds, and every result
        document crosses the wire once.  Holds and pacing are as in
        :meth:`wait`.  Raises :class:`JobFailed` on the first job
        observed ``failed`` and ``TimeoutError`` when any job is still
        pending at the deadline.
        """
        deadline = time.monotonic() + check_positive(timeout_s, "timeout_s")
        interval = check_positive(poll_interval_s, "poll_interval_s")
        done: dict[str, dict] = {}
        pending = list(dict.fromkeys(job_ids))
        while True:
            asked = time.monotonic()
            found = {
                job["id"]: job
                for job in self.jobs(ids=pending, wait_s=self._hold(interval, deadline))
            }
            for job_id in pending:
                # Fall back to a point GET when the lookup misses the
                # job: a 404 there says it was evicted mid-wait.
                job = found.get(job_id) or self.job(job_id)
                state = job["state"]
                if state == "failed":
                    raise JobFailed(job)
                if state == "done":
                    done[job_id] = job
            pending = [job_id for job_id in pending if job_id not in done]
            if not pending:
                return [done[job_id] for job_id in job_ids]
            self._pace(
                asked,
                interval,
                deadline,
                f"{len(pending)} of {len(done) + len(pending)} jobs still pending after "
                f"{timeout_s:.0f}s (first: {pending[0]})",
            )

    # -- remapping ------------------------------------------------------
    def remap_watch(self, app: str, mapping: list[str], **knobs) -> dict:
        """Register a remap watch; returns the watch document (with ``id``).

        The daemon then re-evaluates *mapping* under each fresh snapshot
        every ``interval_s`` and records a cost/benefit decision whenever
        drift past ``threshold`` fires.  *knobs* are the other fields of
        a watch document (``WATCH_FIELDS`` in
        :mod:`repro.server.serialize`: ``pool``, ``interval_s``,
        ``threshold``, ``hysteresis``, ``cooldown_s``, ``safety_factor``,
        ``seed``, ``max_ticks``); one omitted uses the server default.
        """
        body = _body(app=app, mapping=mapping, **knobs)
        return self._member("POST", "/v1/remap/watch", "watch", body)

    def remap_watches(self) -> list[dict]:
        """Every registered watch's current state."""
        return self._member("GET", "/v1/remap/watch", "watches")

    def remap_decisions(self, limit: int | None = None) -> list[dict]:
        """Recorded remap decisions, oldest first."""
        path = "/v1/remap/decisions" if limit is None else f"/v1/remap/decisions?limit={limit}"
        return self._member("GET", path, "decisions")

    def inject_load(self, events: list[dict]) -> dict:
        """Set background/NIC load on daemon cluster nodes.

        *events* are ``{"node": id, "cpu_load": x, "nic_load": y}``
        documents; the daemon adopts a fresh snapshot immediately.
        """
        return self._request("POST", "/v1/load", {"events": events})

    def wait_decision(
        self,
        watch_id: str,
        *,
        timeout_s: float = 30.0,
        poll_interval_s: float = 0.1,
    ) -> dict:
        """Poll until the watch records a decision (or finishes).

        Returns the first decision document for *watch_id*; raises
        ``TimeoutError`` if the watch hit ``max_ticks`` (a finished
        watch may since have left the daemon's listing) — or the
        deadline passed — without one.
        """
        deadline = time.monotonic() + check_positive(timeout_s, "timeout_s")
        interval = check_positive(poll_interval_s, "poll_interval_s")
        give_up = False
        while True:
            for decision in self.remap_decisions():
                if decision.get("watch_id") == watch_id:
                    return decision
            if give_up:
                raise TimeoutError(
                    f"watch {watch_id} recorded no decision within {timeout_s:.0f}s"
                )
            # One more decisions fetch happens after the watch finishes,
            # so a decision recorded on its final tick is not missed.
            give_up = time.monotonic() >= deadline or not any(
                w["id"] == watch_id and not w["done"] for w in self.remap_watches()
            )
            if not give_up:
                time.sleep(interval)

    # -- one-call conveniences ------------------------------------------
    # Each takes the other fields of its job kind (``JOB_FIELDS`` in
    # :mod:`repro.server.serialize`) as keywords and restates none of
    # them: the server checks them and states their defaults.
    def _run(self, kind: str, timeout_s: float, **fields) -> dict:
        job = self.submit(kind, **fields)
        return self.wait(job["id"], timeout_s=timeout_s)["result"]

    def schedule(self, app: str, *, timeout_s: float = 300.0, **fields) -> dict:
        """Submit a scheduling job and wait for its result document.

        *fields*: ``scheduler``, ``pool`` or ``arch``, ``seed``,
        ``options``, ``workers``, ``time_budget``.
        """
        return self._run("schedule", timeout_s, app=app, **fields)

    def predict(self, app: str, nodes: list[str], *, timeout_s: float = 60.0, **fields) -> dict:
        """Submit a prediction job for one explicit mapping and wait.

        *fields*: ``seed``, ``options``.
        """
        return self._run("predict", timeout_s, app=app, nodes=nodes, **fields)

    def compare(
        self, app: str, mappings: list[list[str]], *, timeout_s: float = 120.0, **fields
    ) -> list[dict]:
        """Submit a comparison job; returns predictions fastest-first.

        *fields*: ``seed``, ``options``.
        """
        return self._run("compare", timeout_s, app=app, mappings=mappings, **fields)["ranked"]

"""The one HTTP service core under the CBES daemon and the fleet router.

Both front doors are an :class:`HttpService` — a declarative route table
plus start/stop hooks — so everything between a socket and a handler,
and everything a process needs to serve and stop, exists exactly once:
the listener and the HTTP/1.1 keep-alive connection loop, request ids
and the access log, the per-route request metrics, the
:class:`~repro.server.protocol.ApiError` / 500 mapping, 404 / 405
derived from the table, the SIGTERM/SIGINT lifecycle, and
:class:`ServiceThread`, the blocking harness tests and benchmarks run a
service under.  ``docs/SERVICE.md`` ("Connection and error contract")
describes the same behaviour from the client's side.
"""

from __future__ import annotations

import asyncio
import logging
import math
import re
import signal
import threading
import time
import uuid
from collections.abc import Awaitable, Callable, Mapping, Sequence
from urllib.parse import parse_qs

from repro import telemetry
from repro.server.client import CbesClient
from repro.server.protocol import (
    MAX_LOOKUP_IDS,
    ApiError,
    HttpRequest,
    RawResponse,
    read_request,
    render_response,
)
from repro.telemetry.export import PROMETHEUS_CONTENT_TYPE, snapshot_to_prometheus

__all__ = [
    "MAX_WAIT_S",
    "Handler",
    "HttpService",
    "Response",
    "ServiceThread",
    "metrics_response",
    "query_choice",
    "query_ids",
    "query_int",
    "query_seconds",
]

log = logging.getLogger("repro.server.http")
access_log = logging.getLogger("repro.server.access")

#: What a handler returns: (status, payload, extra response headers).
Response = tuple[int, "dict | RawResponse", dict]
Handler = Callable[[HttpRequest], Awaitable[Response]]

#: Metric ``route`` label of anything the table does not know, so a
#: client cannot mint unbounded label cardinality.
UNMATCHED = "(unmatched)"

#: How often the service's loop checks its own lateness (seconds): a
#: stall of *b* seconds is observed as a lag between *b* minus this and *b*.
LAG_PROBE_S = 0.01

#: Longest a job lookup is held for its ``wait_s`` (seconds); a longer
#: ``wait_s`` is held this long.
MAX_WAIT_S = 10.0

#: Inbound ``X-Request-Id`` values we are willing to log and forward.
_REQUEST_ID = re.compile(r"[A-Za-z0-9._-]{1,64}")


def query_int(
    query: Mapping[str, list[str]], name: str, *, minimum: int | None = None
) -> int | None:
    """An optional integer query parameter (400 unless an int >= *minimum*)."""
    if name not in query:
        return None
    try:
        value = int(query[name][0])
    except ValueError:
        raise ApiError(400, "bad-request", f"{name} must be an integer") from None
    if minimum is not None and value < minimum:
        raise ApiError(400, "bad-request", f"{name} must be >= {minimum}")
    return value


def query_seconds(
    query: Mapping[str, list[str]], name: str, *, positive: bool = False
) -> float | None:
    """An optional duration query parameter in seconds.

    400 unless a finite number >= 0, or > 0 with *positive*: NaN would
    make a deadline unreachable and ``inf`` one that never comes.
    """
    if name not in query:
        return None
    try:
        value = float(query[name][0])
    except ValueError:
        value = math.nan
    if not (0 < value if positive else 0 <= value) or value == math.inf:  # NaN fails both
        bound = "> 0" if positive else ">= 0"
        raise ApiError(400, "bad-request", f"{name} must be a finite number {bound}")
    return value


def query_choice(query: Mapping[str, list[str]], name: str, valid: Sequence[str]) -> str | None:
    """An optional query parameter restricted to *valid* (400 otherwise)."""
    value = query.get(name, [None])[0]
    if value is not None and value not in valid:
        raise ApiError(400, "bad-request", f"unknown {name} {value!r}; valid: {', '.join(valid)}")
    return value


def query_ids(query: Mapping[str, list[str]]) -> list[str] | None:
    """The optional ``ids`` lookup parameter of ``GET /v1/jobs``.

    A comma-separated list of 1 to :data:`MAX_LOOKUP_IDS` non-empty job
    ids (400 otherwise).  A lookup is not a page, so combining it with
    ``after`` / ``limit`` is a 400 too.
    """
    if "ids" not in query:
        return None
    if "after" in query or "limit" in query:
        raise ApiError(400, "bad-request", "ids cannot be combined with after or limit")
    ids = query["ids"][0].split(",")
    if "" in ids:
        raise ApiError(
            400, "bad-request", "ids must be a comma-separated list of non-empty job ids"
        )
    if len(ids) > MAX_LOOKUP_IDS:
        raise ApiError(
            400,
            "bad-request",
            f"ids names {len(ids)} jobs; at most {MAX_LOOKUP_IDS} per request",
        )
    return ids


def metrics_response(snapshot: dict, query: Mapping[str, list[str]]) -> Response:
    """``GET /v1/metrics``: Prometheus text, or the JSON dump on ``?format=json``."""
    if query.get("format", [""])[0] == "json":
        return 200, {"metrics": snapshot}, {}
    text = snapshot_to_prometheus(snapshot)
    return 200, RawResponse(text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE), {}


class HttpService:
    """An asyncio JSON-over-HTTP service: a route table over one core.

    Subclasses provide :meth:`routes` and, optionally, the
    :meth:`_on_start` / :meth:`_on_stop` hooks.  *name* is used in logs
    and errors; *metric_prefix* names the HTTP metric families
    (``<prefix>_requests_total`` and friends) declared in *metrics*;
    the keep-alive and body-size parameters are the checked daemon
    settings of the same names (:data:`~repro.server.config.DAEMON_FIELDS`).
    """

    def __init__(
        self,
        *,
        name: str,
        metric_prefix: str,
        host: str,
        port: int,
        metrics: telemetry.MetricsRegistry,
        keepalive_max_requests: int,
        keepalive_timeout_s: float,
        max_body_bytes: int,
    ) -> None:
        self.name = name
        self._host = host
        self._port = port
        self._metrics = metrics
        self.keepalive_max_requests = keepalive_max_requests
        self.keepalive_timeout_s = keepalive_timeout_s
        self.max_body_bytes = max_body_bytes
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested: asyncio.Event | None = None
        self._draining = False
        self._started_at: float | None = None
        #: Open client connections -> whether a request is mid-dispatch
        #: (idle ones are closed outright on stop; busy ones close
        #: themselves after their in-flight response).
        self._conn_busy: dict[asyncio.StreamWriter, bool] = {}
        #: route template -> {method: handler}
        self._table: dict[str, dict[str, Handler]] = {}
        for (method, template), handler in self.routes().items():
            self._table.setdefault(template, {})[method] = handler
        #: (prefix, parameter name, template) of each ``.../{name}`` route.
        self._prefixed = [
            (template[: template.index("{")], template[template.index("{") + 1 : -1], template)
            for template in self._table
            if template.endswith("}")
        ]
        m, p = metrics, metric_prefix
        self._m_requests = m.counter(
            f"{p}_requests_total", "HTTP requests served.", ("method", "route", "status")
        )
        self._m_request_seconds = m.histogram(
            f"{p}_request_seconds", "HTTP request latency.", ("route",)
        )
        self._m_connections = m.counter(
            f"{p}_connections_total", "Client TCP connections accepted."
        )
        self._m_keepalive_reqs = m.counter(
            f"{p}_keepalive_requests_total",
            "Requests served on an already-open (reused) connection.",
        )
        m.gauge(
            f"{p}_open_connections",
            "Client connections currently open.",
            callback=lambda: len(self._conn_busy),
        )
        self._m_loop_lag = m.histogram(
            f"{p}_event_loop_lag_seconds",
            "How late the serving loop ran a timer: what a blocking call cost every connection.",
        )
        self._lag_probe: asyncio.TimerHandle | None = None

    # -- what a subclass provides -----------------------------------------
    def routes(self) -> dict[tuple[str, str], Handler]:
        """The route table: ``{(method, template): async handler}``.

        A template is a literal path, or a prefix ending in one
        ``{name}`` segment that binds the rest of the path into
        ``request.params[name]`` (``/v1/jobs/{id}``).
        """
        raise NotImplementedError

    async def _on_start(self) -> None:
        """Hook: runs on the serving loop just before the listener binds."""

    async def _on_stop(self, drain: bool) -> None:
        """Hook: runs after the listener and its connections are closed."""

    # -- properties ---------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); only meaningful after :meth:`start`."""
        if self._server is None:
            raise RuntimeError(f"{self.name} is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def metrics(self) -> telemetry.MetricsRegistry:
        """The registry this service records into (``GET /v1/metrics``)."""
        return self._metrics

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        return time.monotonic() - self._started_at if self._started_at is not None else 0.0

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Run the start hook and bind the listener; returns the address."""
        if self._server is not None:
            return self.address
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        self._started_at = time.monotonic()
        await self._on_start()
        self._server = await asyncio.start_server(self._serve_connection, self._host, self._port)
        self._arm_lag_probe()
        log.info("%s listening on %s:%d", self.name, *self.address)
        return self.address

    def request_shutdown(self) -> None:
        """Ask the service to drain and stop; safe from any thread."""
        loop, event = self._loop, self._shutdown_requested
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    async def wait_shutdown(self) -> None:
        """Block until :meth:`request_shutdown` (or a signal) fires."""
        assert self._shutdown_requested is not None, f"{self.name} is not started"
        await self._shutdown_requested.wait()

    async def stop(self, *, drain: bool = True) -> None:
        """Stop serving; with *drain*, the stop hook finishes accepted work."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        # Idle keep-alive connections would otherwise pin wait_closed()
        # (which waits for connection handlers on Python >= 3.12.1)
        # until their idle timeout; busy handlers notice _draining and
        # close themselves right after the in-flight response.
        for conn_writer, busy in list(self._conn_busy.items()):
            if not busy:
                conn_writer.close()
        await self._server.wait_closed()
        self._lag_probe.cancel()
        await self._on_stop(drain)
        self._server = None
        log.info("%s stopped (drained=%s)", self.name, drain)

    def _arm_lag_probe(self) -> None:
        due = self._loop.time() + LAG_PROBE_S
        self._lag_probe = self._loop.call_at(due, self._probe_lag, due)

    def _probe_lag(self, due: float) -> None:
        """Observe how late the loop ran this timer, then re-arm it."""
        self._m_loop_lag.observe(max(0.0, self._loop.time() - due))
        self._arm_lag_probe()

    async def serve_forever(self) -> None:
        """Start, serve until SIGTERM/SIGINT (or request_shutdown), drain."""
        await self.start()
        assert self._loop is not None
        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.request_shutdown)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                # Platforms/threads without signal support: rely on
                # request_shutdown() being called programmatically.
                pass
        try:
            await self.wait_shutdown()
            log.info("%s shutdown requested; draining", self.name)
        finally:
            for sig in installed:
                self._loop.remove_signal_handler(sig)
            await self.stop(drain=True)

    # -- connection loop ----------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests off one connection until it is done.

        HTTP/1.1 keep-alive: the loop keeps serving requests on the same
        socket until the client sends ``Connection: close`` (or hangs
        up), ``keepalive_max_requests`` is reached, the idle timeout
        expires between requests, the service starts draining, or an
        error leaves the stream in an unknowable state (parse failures
        desynchronize framing; 500s are closed defensively).
        """
        self._m_connections.inc()
        self._conn_busy[writer] = False
        served = 0
        try:
            while True:
                incoming: HttpRequest | ApiError | None
                # One timer bounds the idle wait plus the read: at expiry
                # it aborts the socket, and the read ends at end-of-file.
                reap = self._loop.call_later(self.keepalive_timeout_s, writer.transport.abort)
                try:
                    incoming = await read_request(reader, max_body_bytes=self.max_body_bytes)
                except ApiError as exc:
                    incoming = exc  # parse-level failure: still answered
                finally:
                    reap.cancel()
                if incoming is None or writer.transport.is_closing():
                    break  # clean EOF between requests, or reaped idle / on stop
                served += 1
                if served > 1:
                    self._m_keepalive_reqs.inc()
                self._conn_busy[writer] = True
                try:
                    keep_alive = await self._exchange(incoming, writer, served)
                finally:
                    self._conn_busy[writer] = False
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            self._conn_busy.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _exchange(
        self, incoming: HttpRequest | ApiError, writer: asyncio.StreamWriter, served: int
    ) -> bool:
        """Answer one request (or parse failure); True keeps the connection."""
        method, path, route = "-", "-", UNMATCHED
        request_id = ""
        if isinstance(incoming, HttpRequest):
            method, path = incoming.method, incoming.path
            request_id = incoming.headers.get("x-request-id", "")
        if not _REQUEST_ID.fullmatch(request_id):
            request_id = uuid.uuid4().hex[:8]
        status: int | None = None
        try:
            with telemetry.stage("server.request") as span:
                if isinstance(incoming, ApiError):
                    # Parse-level failure.  Recoverable ones (413 with the
                    # oversized body drained) leave the stream correctly
                    # framed, so keep-alive can survive them; anything else
                    # may be desynchronized — answer and close.
                    error, reusable = incoming, incoming.recoverable
                else:
                    error = None
                    reusable = incoming.headers.get("connection", "").lower() != "close"
                    incoming.request_id = request_id
                    try:
                        route, where = self._match(incoming)
                        handler = self._table.get(route, {}).get(method)
                        if route is UNMATCHED:
                            raise ApiError(404, "not-found", f"no route for {where}")
                        if handler is None:
                            raise ApiError(
                                405, "method-not-allowed", f"{method} not allowed on {where}"
                            )
                        status, payload, headers = await handler(incoming)
                    except ApiError as exc:
                        error = exc
                    except Exception:  # noqa: BLE001 - never leak a traceback
                        log.exception("unhandled error serving %s %s", method, path)
                        error = ApiError(500, "internal", "internal server error")
                if error is not None:
                    status, payload, headers = error.status, error.to_payload(), error.headers
                keep_alive = (
                    reusable
                    and status < 500
                    and served < self.keepalive_max_requests
                    and not self._draining
                )
                headers["X-Request-Id"] = request_id
                writer.write(
                    render_response(status, payload, headers=headers, close=not keep_alive)
                )
                await writer.drain()
            return keep_alive
        finally:
            # Accounting runs on EVERY served response — 429
            # backpressure, errors, clients that reset mid-write — so
            # latency and the per-route counters never undercount.
            if status is not None:
                self._m_requests.inc(method=method, route=route, status=status)
                self._m_request_seconds.observe(span.duration_s, route=route)
                access_log.info(
                    "req=%s %s %s -> %d (%.1f ms)",
                    request_id, method, path, status, span.duration_s * 1e3,
                )

    def _match(self, request: HttpRequest) -> tuple[str, str]:
        """(route template, normalized path) of *request*.

        Fills ``request.query`` / ``request.params``; the template is
        :data:`UNMATCHED` for a path the table does not know, so 404,
        405 and the metric label are all derived from the one table.
        """
        path, _, query_string = request.path.partition("?")
        path = path.rstrip("/") or "/"
        # Blank values are kept: `?ids=` must be refused, not mistaken
        # for the un-filtered listing.
        request.query = parse_qs(query_string, keep_blank_values=True)
        if path in self._table and "{" not in path:  # a literal "{id}" is no template
            return path, path
        for prefix, name, template in self._prefixed:
            if path.startswith(prefix) and len(path) > len(prefix):
                request.params = {name: path[len(prefix) :]}
                return template, path
        return UNMATCHED, path


class ServiceThread:
    """Run an :class:`HttpService` on a dedicated thread and event loop.

    The blocking harness used by tests, examples and benchmarks; entering
    the ``with`` block starts the service, leaving it requests shutdown
    and joins the thread (draining, like SIGTERM would).
    """

    def __init__(self, service: HttpService, *, startup_timeout_s: float = 30.0):
        self._service = service
        self._startup_timeout = startup_timeout_s
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name=f"cbes-{service.name}", daemon=True
        )

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        try:
            await self._service.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the starter
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._service.wait_shutdown()
        finally:
            await self._service.stop(drain=True)

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise RuntimeError(f"{self._service.name} did not start within the startup timeout")
        if self._error is not None:
            raise RuntimeError(f"{self._service.name} failed to start") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, *, timeout_s: float = 60.0) -> None:
        """Request shutdown and join the service thread."""
        self._service.request_shutdown()
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise RuntimeError(f"{self._service.name} thread did not stop within the timeout")

    @property
    def host(self) -> str:
        return self._service.address[0]

    @property
    def port(self) -> int:
        return self._service.address[1]

    def client(self, **kwargs) -> CbesClient:
        """A blocking :class:`~repro.server.client.CbesClient` for this service."""
        return CbesClient(self.host, self.port, **kwargs)

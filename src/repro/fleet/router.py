"""The fleet router: one HTTP front door over N shared-nothing replicas.

Scale-out shape: each replica is a complete, independent
:class:`~repro.server.daemon.CbesDaemon` (own job store, own worker
pool, own telemetry); the router owns **no job state**.  Placement is a
pure function — the router mints a globally-unique job id and
rendezvous-hashes it to a replica (:mod:`repro.fleet.hashing`), so any
router instance, restarted or replicated, routes the same id to the
same replica.

Request handling:

* ``POST /v1/jobs`` — mint an id (unless the client supplied one),
  submit to the best *healthy* replica in the id's preference order;
* ``POST /v1/jobs:batch`` — partition entries by target replica, fan
  the sub-batches out concurrently, merge per-job results back into
  submission order (batch atomicity becomes per-replica: see
  ``docs/FLEET.md``);
* ``GET /v1/jobs/{id}`` — walk the id's preference order until a
  replica answers 200 (a job submitted while its first choice was
  unhealthy lives on the second); a ``wait_s`` goes along, clamped to
  half the replica timeout so a hold never turns into a 502;
* ``GET /v1/jobs`` — scatter to healthy replicas, concatenate in
  configured replica order, apply ``state``/``after``/``limit``
  centrally;
* ``GET /v1/jobs?ids=...`` — partition the ids by owner like a batch,
  ask only the owning replicas (``wait_s`` forwarded, clamped the same
  way), and walk an id its owner reports ``missing`` down its
  preference order like a point lookup;
* ``GET /v1/metrics`` — scatter, then absorb the router's own snapshot
  and every replica's into one fresh registry
  (:meth:`~repro.telemetry.MetricsRegistry.absorb`: counters and gauges
  sum, histograms add bucket-wise — the rule search workers' snapshots
  use too) and render it exactly like a single daemon would;
* ``GET /v1/healthz`` — fleet health: per-replica documents plus an
  aggregate ``ok`` / ``degraded`` verdict;
* ``POST /v1/schedule:best`` — race one schedule request across every
  healthy replica (distinct seeds) and reduce to the best result with
  repro.search's deterministic tie-break: ``(predicted_time,
  submission index)``;
* ``GET /v1/snapshot`` / ``/v1/profiles`` / ``/v1/traces`` — forwarded
  to one healthy replica, retried on a peer if it fails mid-request
  (idempotent reads only).

A replica is marked unhealthy after ``unhealthy_after`` consecutive
transport failures; a background probe loop keeps knocking and restores
it on the first successful health check.

The router is an :class:`~repro.server.http.HttpService` like the daemon
it fronts, so its connection handling, request ids (forwarded on every
replica call), error mapping and shutdown are the daemon's — see
``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import logging
import uuid
from urllib.parse import urlencode

from repro import telemetry
from repro.fleet.hashing import rendezvous_rank
from repro.fleet.transport import BackendError, BackendPool
from repro.server.config import DAEMON_FIELDS, HTTP_FIELDS
from repro.server.http import (
    MAX_WAIT_S,
    Handler,
    HttpService,
    Response,
    ServiceThread,
    metrics_response,
    query_choice,
    query_ids,
    query_int,
    query_seconds,
)
from repro.server.jobs import JobState
from repro.server.protocol import (
    ApiError,
    HttpRequest,
    RawResponse,
    decode_object,
    lookup_body,
    split_lookup,
)
from repro.server.serialize import COMMON_JOB_FIELDS, batch_entries, check_field

__all__ = ["FleetRouter", "RouterThread"]

log = logging.getLogger("repro.fleet.router")

#: Metric families recorded by the router (name, help[, labels]); its
#: HTTP families are the core's, under the ``cbes_fleet`` prefix.
FLEET_BACKEND_REQUESTS_TOTAL = (
    "cbes_fleet_backend_requests_total",
    "Requests forwarded to replicas.",
    ("backend", "outcome"),
)
FLEET_BACKEND_UNHEALTHY_TOTAL = (
    "cbes_fleet_backend_unhealthy_total",
    "Times a replica was marked unhealthy.",
    ("backend",),
)
FLEET_RETRIES_TOTAL = (
    "cbes_fleet_retries_total",
    "Idempotent reads retried on a healthy peer.",
)


def _decode(backend: str, raw: bytes) -> dict:
    """A replica's answer as a JSON object, else a :class:`BackendError`."""
    try:
        return decode_object(raw)
    except ValueError as exc:
        raise BackendError(backend, f"response {exc}") from None


def _health(backend: str, raw: bytes) -> dict:
    """A replica's ``/v1/healthz`` answer, its summed counts checked to be ints."""
    doc = _decode(backend, raw)
    jobs = doc.get("jobs", {})
    counts = [doc.get(name, 0) for name in ("queue_depth", "queue_limit", "workers")]
    if not (isinstance(jobs, dict) and all(isinstance(n, int) for n in [*jobs.values(), *counts])):
        raise BackendError(backend, "healthz answer of the wrong shape")
    return doc


def _relayed_headers(headers: dict[str, str]) -> dict[str, str]:
    """The replica response headers a client must see through the router."""
    return {"Retry-After": headers["retry-after"]} if "retry-after" in headers else {}


class _Replica:
    """One backend and its health bookkeeping."""

    def __init__(self, backend: str, *, timeout_s: float):
        self.backend = backend
        self.pool = BackendPool(backend, timeout_s=timeout_s)
        self.healthy = True
        self.failures = 0


class FleetRouter(HttpService):
    """Routes the CBES HTTP API across shared-nothing replica daemons.

    Parameters
    ----------
    backends:
        ``host:port`` strings of the replica daemons (configured order
        is the deterministic merge order for listings and health).
    host, port:
        Router bind address; port 0 picks an ephemeral port.
    unhealthy_after:
        Consecutive transport failures before a replica is routed
        around.
    probe_interval_s:
        Period of the background probe that resurrects unhealthy
        replicas.
    timeout_s:
        Per-exchange deadline on replica calls; a held lookup is
        forwarded with at most half of it (and :data:`MAX_WAIT_S`).
    metrics:
        Router-local registry (fresh one by default); merged into the
        fleet ``/v1/metrics`` reduction alongside the replicas'.
    """

    def __init__(
        self,
        backends: list[str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unhealthy_after: int = 3,
        probe_interval_s: float = 0.5,
        timeout_s: float = 30.0,
        metrics: telemetry.MetricsRegistry | None = None,
    ) -> None:
        if not backends:
            raise ValueError("fleet router requires at least one backend")
        if len(set(backends)) != len(backends):
            raise ValueError("backends must be unique")
        if unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        if probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be > 0")
        super().__init__(
            name="fleet-router",
            metric_prefix="cbes_fleet",
            host=host,
            port=port,
            metrics=metrics if metrics is not None else telemetry.MetricsRegistry(),
            # A client meets the router's connection handling as a replica's.
            **{name: DAEMON_FIELDS[name].default for name in HTTP_FIELDS},
        )
        self._unhealthy_after = unhealthy_after
        self._probe_interval = probe_interval_s
        self._replicas = {b: _Replica(b, timeout_s=timeout_s) for b in backends}
        self._order = list(backends)
        #: The longest hold asked of a replica: it answers within its timeout.
        self._max_hold_s = min(MAX_WAIT_S, timeout_s / 2)
        self._probe_task: asyncio.Task | None = None
        m = self._metrics
        self._m_backend = m.counter(*FLEET_BACKEND_REQUESTS_TOTAL)
        self._m_unhealthy = m.counter(*FLEET_BACKEND_UNHEALTHY_TOTAL)
        self._m_retries = m.counter(*FLEET_RETRIES_TOTAL)
        m.gauge(
            "cbes_fleet_replicas", "Configured replicas.", callback=lambda: len(self._replicas)
        )
        m.gauge(
            "cbes_fleet_replicas_healthy",
            "Replicas currently considered healthy.",
            callback=lambda: sum(r.healthy for r in self._replicas.values()),
        )

    def routes(self) -> dict[tuple[str, str], Handler]:
        return {
            ("POST", "/v1/jobs"): self._submit,
            ("GET", "/v1/jobs"): self._list_jobs,
            ("POST", "/v1/jobs:batch"): self._submit_batch,
            ("GET", "/v1/jobs/{id}"): self._get_job,
            ("POST", "/v1/schedule:best"): self._schedule_best,
            ("POST", "/v1/load"): self._inject_load,
            ("GET", "/v1/remap/{path}"): self._remap_not_proxied,
            ("POST", "/v1/remap/{path}"): self._remap_not_proxied,
            ("GET", "/v1/healthz"): self._healthz,
            ("GET", "/v1/metrics"): self._merged_metrics,
            ("GET", "/v1/snapshot"): self._forward_read,
            ("GET", "/v1/profiles"): self._forward_read,
            ("GET", "/v1/traces"): self._forward_read,
        }

    @property
    def backends(self) -> list[str]:
        return list(self._order)

    # -- lifecycle hooks ------------------------------------------------
    async def _on_start(self) -> None:
        assert self._loop is not None
        self._probe_task = self._loop.create_task(self._probe_loop(), name="fleet-probe")
        log.info("fleet router over %s", ", ".join(self._order))

    async def _on_stop(self, drain: bool) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            await asyncio.gather(self._probe_task, return_exceptions=True)
        for replica in self._replicas.values():
            replica.pool.close()

    # -- replica health -------------------------------------------------
    def _healthy(self) -> list[str]:
        return [b for b in self._order if self._replicas[b].healthy]

    def _require_healthy(self) -> list[str]:
        """The healthy replicas, or 503 when there are none."""
        backends = self._healthy()
        if not backends:
            raise ApiError(503, "no-replicas", "no healthy replicas available")
        return backends

    def _note_success(self, backend: str) -> None:
        replica = self._replicas[backend]
        replica.failures = 0
        if not replica.healthy:
            replica.healthy = True
            log.info("replica %s is healthy again", backend)
        self._m_backend.inc(backend=backend, outcome="ok")

    def _note_failure(self, backend: str) -> None:
        replica = self._replicas[backend]
        replica.failures += 1
        self._m_backend.inc(backend=backend, outcome="error")
        if replica.healthy and replica.failures >= self._unhealthy_after:
            replica.healthy = False
            self._m_unhealthy.inc(backend=backend)
            log.warning(
                "replica %s marked unhealthy after %d consecutive failures",
                backend,
                replica.failures,
            )

    async def _call(
        self, request: HttpRequest, backend: str, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """One replica exchange on behalf of *request*, with health accounting:
        (status, headers, body bytes) — a handler that needs a dict calls
        :func:`_decode`, a relay passes the bytes on.

        The inbound request id rides along, so one client request is one
        id in the router's and every replica's logs and job records.
        """
        replica = self._replicas[backend]
        try:
            answer = await replica.pool.request(
                method, path, body, headers={"X-Request-Id": request.request_id}
            )
        except BackendError:
            self._note_failure(backend)
            raise
        self._note_success(backend)
        return answer

    async def _scatter(
        self,
        request: HttpRequest,
        backends: list[str],
        method: str,
        path: str,
        body: dict | None = None,
    ) -> list[tuple[str, int, dict[str, str], bytes]]:
        """The same call to every backend at once: (backend, status, headers, body).

        A replica that fails at the transport level is left out — a
        freshly-failed replica must not take the survivors' answer down
        with it.
        """
        outcomes = await asyncio.gather(
            *(self._call(request, b, method, path, body) for b in backends),
            return_exceptions=True,
        )
        answered = []
        for backend, outcome in zip(backends, outcomes):
            if isinstance(outcome, BackendError):
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            answered.append((backend, *outcome))
        return answered

    @staticmethod
    def _relay_error(backend: str, status: int, raw: bytes, headers: dict[str, str]) -> ApiError:
        """A replica's error answer, re-raised to the client as ours."""
        error = _decode(backend, raw).get("error", {})
        return ApiError(
            status,
            error.get("code", "replica-error"),
            f"replica {backend}: {error.get('message', 'rejected the request')}",
            headers=_relayed_headers(headers),
        )

    async def _probe_loop(self) -> None:
        """Knock on unhealthy replicas until they answer again."""
        while True:
            await asyncio.sleep(self._probe_interval)
            for backend in self._order:
                replica = self._replicas[backend]
                if replica.healthy:
                    continue
                try:
                    status, _headers, _raw = await replica.pool.request("GET", "/v1/healthz")
                except BackendError:
                    continue
                if status == 200:
                    replica.failures = 0
                    replica.healthy = True
                    log.info("replica %s resurrected by probe", backend)

    # -- submission -----------------------------------------------------
    def _routed_backends(self, job_id: str) -> list[str]:
        """Healthy replicas in the id's rendezvous preference order."""
        healthy = set(self._require_healthy())
        return [b for b in rendezvous_rank(job_id, self._order) if b in healthy]

    @staticmethod
    def _stamped(doc: dict) -> dict:
        """*doc* with a job id: the caller's (held to the daemon's rule) or a minted one."""
        if check_field(COMMON_JOB_FIELDS, doc, "id") is not None:
            return doc
        # The id is pure identity (never a scheduling decision), so OS
        # entropy keeps it unique across routers and restarts.
        return {**doc, "id": uuid.uuid4().hex}  # repro: disable=RPR101

    async def _submit(self, request: HttpRequest) -> Response:
        doc = self._stamped(request.json())
        last_error: BackendError | None = None
        for backend in self._routed_backends(doc["id"]):
            try:
                status, headers, raw = await self._call(request, backend, "POST", "/v1/jobs", doc)
            except BackendError as exc:
                last_error = exc
                continue
            if status < 500:
                return status, RawResponse(raw, "application/json"), _relayed_headers(headers)
        raise ApiError(
            503, "no-replicas", f"every routed replica failed (last: {last_error})"
        )

    async def _submit_batch(self, request: HttpRequest) -> Response:
        stamped = batch_entries(request.json(), self._stamped)
        groups: dict[str, list[int]] = {}
        for i, entry in enumerate(stamped):
            backend = self._routed_backends(entry["id"])[0]
            groups.setdefault(backend, []).append(i)
        results = await asyncio.gather(
            *(
                self._call(
                    request, b, "POST", "/v1/jobs:batch", {"jobs": [stamped[i] for i in indices]}
                )
                for b, indices in groups.items()
            ),
            return_exceptions=True,
        )
        merged: list[dict | None] = [None] * len(stamped)
        for (backend, indices), outcome in zip(groups.items(), results):
            if isinstance(outcome, BackendError):
                raise ApiError(
                    503,
                    "replica-failed",
                    f"sub-batch to {backend} failed ({outcome}); "
                    "other sub-batches may have been accepted",
                )
            if isinstance(outcome, BaseException):
                raise outcome
            status, headers, raw = outcome
            if status >= 400:
                raise self._relay_error(backend, status, raw, headers)
            for slot, job_doc in zip(indices, _decode(backend, raw).get("jobs", [])):
                merged[slot] = job_doc
        if any(job is None for job in merged):
            raise ApiError(502, "replica-error", "a replica returned fewer jobs than submitted")
        return 202, {"jobs": merged, "count": len(merged)}, {}

    # -- lookup / listing -----------------------------------------------
    def _wait_query(self, request: HttpRequest) -> str:
        """The ``wait_s`` query to forward (``""`` without one), clamped to :attr:`_max_hold_s`."""
        wait_s = query_seconds(request.query, "wait_s")
        return "" if wait_s is None else f"wait_s={min(wait_s, self._max_hold_s)}"

    async def _get_job(self, request: HttpRequest) -> Response:
        """Walk the id's preference order until someone owns it.

        Only the owner holds a ``wait_s``: a replica without the job
        answers 404 at once.
        """
        job_id = request.params["id"]
        wait = self._wait_query(request)
        path = f"/v1/jobs/{job_id}?{wait}" if wait else f"/v1/jobs/{job_id}"
        last_error: BackendError | None = None
        for rank, backend in enumerate(self._routed_backends(job_id)):
            try:
                status, _, raw = await self._call(request, backend, "GET", path)
            except BackendError as exc:
                last_error = exc
                continue
            if rank > 0:
                self._m_retries.inc()
            if status != 404:
                return status, RawResponse(raw, "application/json"), {}
        if last_error is not None:
            raise ApiError(503, "no-replicas", f"lookup failed on every replica ({last_error})")
        raise ApiError(404, "not-found", f"no job {job_id!r} on any replica")

    async def _lookup_jobs(
        self, request: HttpRequest, ids: list[str], state: str | None, wait: str
    ) -> bytes:
        """The ``?ids=`` answer for *ids*, from the replicas that can hold them.

        Ids are grouped by their best healthy replica, exactly as
        :meth:`_submit_batch` places them, and the groups fetched
        concurrently, ``state`` and the *wait* query forwarded (to
        these first calls only, so the walk below never adds a second
        hold to the first).  An id its replica reports
        ``missing`` (or whose replica failed mid-call) moves on to the
        next replica in its preference order, as in :meth:`_get_job`,
        until it is found or the order runs out.  The replicas' job
        spans are spliced in configured replica order, never decoded.
        """
        healthy = set(self._require_healthy())
        remaining = {
            job_id: [b for b in rendezvous_rank(job_id, self._order) if b in healthy]
            for job_id in dict.fromkeys(ids)
        }
        filtered = {"state": state} if state is not None else {}
        wait = "&" + wait if wait else ""
        spans: dict[str, list[bytes]] = {backend: [] for backend in self._order}
        held: set[str] = set()
        rank = 0
        while remaining:
            groups: dict[str, list[str]] = {}
            for job_id, backends in remaining.items():
                groups.setdefault(backends[rank], []).append(job_id)
            if rank > 0:
                self._m_retries.inc(len(groups))
            outcomes = await asyncio.gather(
                *(
                    self._call(
                        request,
                        backend,
                        "GET",
                        f"/v1/jobs?{urlencode({**filtered, 'ids': ','.join(group)})}"
                        + (wait if rank == 0 else ""),
                    )
                    for backend, group in groups.items()
                ),
                return_exceptions=True,
            )
            for (backend, group), outcome in zip(groups.items(), outcomes):
                if isinstance(outcome, BackendError):
                    continue
                if isinstance(outcome, BaseException):
                    raise outcome
                status, headers, raw = outcome
                if status != 200:
                    raise self._relay_error(backend, status, raw, headers)
                try:
                    missing, span = split_lookup(raw)
                except (ValueError, RecursionError) as exc:
                    raise BackendError(backend, f"malformed ?ids= answer: {exc}") from None
                held.update(set(group).difference(missing))
                spans[backend].append(span)
            rank += 1
            remaining = {j: bs for j, bs in remaining.items() if j not in held and rank < len(bs)}
        missing = [job_id for job_id in dict.fromkeys(ids) if job_id not in held]
        return lookup_body(missing, [s for backend in self._order for s in spans[backend] if s])

    async def _list_jobs(self, request: HttpRequest) -> Response:
        state = query_choice(request.query, "state", [s.value for s in JobState])
        limit = query_int(request.query, "limit", minimum=0)
        after = request.query.get("after", [None])[0]
        ids = query_ids(request.query)
        wait = self._wait_query(request)
        if ids is not None:
            body = await self._lookup_jobs(request, ids, state, wait)
            return 200, RawResponse(body, "application/json"), {}
        if wait:
            raise ApiError(400, "bad-request", "wait_s holds an ids= lookup only")
        # `after` pages over the *merged* list, so the cursor must be
        # resolved here — replicas only get the state filter (plus the
        # limit when no cursor shifts the window).
        forwarded: dict[str, str | int] = {}
        if state is not None:
            forwarded["state"] = state
        if after is None and limit is not None:
            forwarded["limit"] = limit
        path = f"/v1/jobs?{urlencode(forwarded)}" if forwarded else "/v1/jobs"
        jobs: list[dict] = []
        for backend, status, headers, raw in await self._scatter(
            request, self._require_healthy(), "GET", path
        ):
            if status != 200:
                raise self._relay_error(backend, status, raw, headers)
            listed = _decode(backend, raw).get("jobs", [])
            if not (isinstance(listed, list) and all(isinstance(job, dict) for job in listed)):
                raise BackendError(backend, f"job listing of the wrong shape: {listed!r:.200}")
            jobs.extend(listed)
        if after is not None:
            index = next((i for i, job in enumerate(jobs) if job.get("id") == after), None)
            if index is None:
                raise ApiError(400, "bad-request", f"unknown 'after' job id {after!r}")
            jobs = jobs[index + 1 :]
        if limit is not None:
            jobs = jobs[:limit]
        return 200, {"jobs": jobs}, {}

    # -- aggregation ----------------------------------------------------
    async def _healthz(self, request: HttpRequest) -> Response:
        async def _probe(backend: str) -> dict:
            try:
                status, _headers, raw = await self._call(request, backend, "GET", "/v1/healthz")
                if status == 200:
                    return {**_health(backend, raw), "backend": backend, "healthy": True}
            except BackendError as exc:
                return {"backend": backend, "healthy": False, "error": str(exc)}
            return {"backend": backend, "healthy": False, "error": f"status {status}"}

        reports = await asyncio.gather(*(_probe(b) for b in self._order))
        healthy = sum(1 for r in reports if r["healthy"])
        totals: dict[str, int] = {}
        queue_depth = queue_limit = workers = 0
        for report in reports:
            for state, count in report.get("jobs", {}).items():
                totals[state] = totals.get(state, 0) + count
            # Extensive quantities: fleet capacity is the replicas' sum.
            queue_depth += report.get("queue_depth", 0)
            queue_limit += report.get("queue_limit", 0)
            workers += report.get("workers", 0)
        return 200, {
            "status": "ok" if healthy == len(reports) else "degraded",
            "role": "fleet-router",
            "uptime_s": self.uptime_s,
            "replicas_total": len(reports),
            "replicas_healthy": healthy,
            "jobs": totals,
            "queue_depth": queue_depth,
            "queue_limit": queue_limit,
            "workers": workers,
            "replicas": reports,
        }, {}

    async def _merged_metrics(self, request: HttpRequest) -> Response:
        merged = telemetry.MetricsRegistry()
        merged.absorb(self._metrics.snapshot())
        for backend, status, _headers, raw in await self._scatter(
            request, self._healthy(), "GET", "/v1/metrics?format=json"
        ):
            # A replica whose answer does not absorb is left out, like
            # one _scatter lost in transport: the scrape answers from the rest.
            try:
                if status != 200:
                    raise BackendError(backend, f"metrics answered {status}")
                merged.absorb(_decode(backend, raw).get("metrics"))
            except (BackendError, telemetry.MetricError) as exc:
                log.warning("fleet scrape leaves out replica %s: %s", backend, exc)
        return metrics_response(merged.snapshot(), request.query)

    async def _forward_read(self, request: HttpRequest) -> Response:
        """Forward an idempotent read, retrying on a healthy peer."""
        last_error: BackendError | None = None
        for i, backend in enumerate(self._require_healthy()):
            try:
                status, _headers, raw = await self._call(request, backend, "GET", request.path)
            except BackendError as exc:
                last_error = exc
                continue
            if i > 0:
                self._m_retries.inc()
            return status, RawResponse(raw, "application/json"), {}
        raise ApiError(503, "no-replicas", f"read failed on every replica ({last_error})")

    async def _remap_not_proxied(self, request: HttpRequest) -> Response:
        raise ApiError(
            501,
            "not-implemented",
            "remap watches are per-replica state; register them on a "
            "replica directly (the fleet router does not proxy them)",
        )

    async def _inject_load(self, request: HttpRequest) -> Response:
        """Fan a load injection to every healthy replica.

        Each replica owns an independent simulated cluster; injecting
        everywhere keeps their snapshots telling the same story.
        """
        answers = await self._scatter(
            request, self._require_healthy(), "POST", "/v1/load", request.json()
        )
        for backend, status, headers, raw in answers:
            if status != 200:
                raise self._relay_error(backend, status, raw, headers)
        if not answers:
            raise ApiError(503, "no-replicas", "load injection failed on every replica")
        backend, _status, _headers, raw = answers[0]
        return 200, {**_decode(backend, raw), "replicas_applied": len(answers)}, {}

    # -- best-of race ---------------------------------------------------
    async def _schedule_best(self, request: HttpRequest) -> Response:
        """Race one schedule request across the fleet; reduce to the best.

        Each healthy replica runs the same search from a distinct seed
        (``seed + replica index``), so the fleet explores different
        trajectories of the same space.  The reduction is
        deterministic — min over ``(predicted_time, submission index)``,
        the same tie-break discipline :mod:`repro.search` uses — so
        equal-quality results always resolve the same way.
        """
        doc = request.json()
        if doc.get("kind", "schedule") != "schedule":
            raise ApiError(400, "bad-request", "schedule:best accepts schedule jobs only")
        timeout_s = query_seconds(request.query, "timeout_s", positive=True) or 120.0
        base_seed = check_field(COMMON_JOB_FIELDS, doc, "seed")
        backends = self._require_healthy()
        loop = asyncio.get_running_loop()

        async def _race(index: int, backend: str) -> dict:
            # Identity, not a decision (see _stamped).
            job_id = uuid.uuid4().hex  # repro: disable=RPR101
            body = {**doc, "kind": "schedule", "seed": base_seed + index, "id": job_id}
            status, headers, raw = await self._call(request, backend, "POST", "/v1/jobs", body)
            if status >= 400:
                raise self._relay_error(backend, status, raw, headers)
            deadline = loop.time() + timeout_s
            while True:
                # Held by the replica until the job is final, so no poll
                # interval stands between its end and this answer.
                hold = min(self._max_hold_s, max(0.0, deadline - loop.time()))
                _status, _headers, raw = await self._call(
                    request, backend, "GET", f"/v1/jobs/{job_id}?wait_s={hold}"
                )
                job = _decode(backend, raw).get("job", {})
                if job.get("state") == "done":
                    return {"backend": backend, "seed": base_seed + index, **job["result"]}
                if job.get("state") == "failed":
                    raise ApiError(
                        500, "job-failed", f"replica {backend}: {job.get('error', '')}"
                    )
                if loop.time() >= deadline:
                    raise ApiError(
                        503, "timeout", f"replica {backend} still running after {timeout_s:.0f}s"
                    )

        outcomes = await asyncio.gather(
            *(_race(i, b) for i, b in enumerate(backends)), return_exceptions=True
        )
        results = []
        for backend, outcome in zip(backends, outcomes):
            if isinstance(outcome, ApiError):  # a BackendError too
                log.warning("schedule:best leg on %s failed: %s", backend, outcome)
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                results.append(outcome)
        if not results:
            raise ApiError(503, "no-replicas", "every schedule:best leg failed")
        best_index = min(
            range(len(results)), key=lambda i: (results[i]["predicted_time"], i)
        )
        return 200, {
            "best": results[best_index],
            "results": results,
            "replicas_raced": len(results),
        }, {}


class RouterThread(ServiceThread):
    """Run a :class:`FleetRouter` on a dedicated thread and event loop.

    The blocking convenience mirror of
    :class:`~repro.server.daemon.DaemonThread`, used by tests and
    benchmarks::

        with RouterThread(["127.0.0.1:8081", "127.0.0.1:8082"]) as fleet:
            client = fleet.client()
    """

    def __init__(self, backends: list[str], **router_kwargs):
        self.router = FleetRouter(backends, **router_kwargs)
        super().__init__(self.router)

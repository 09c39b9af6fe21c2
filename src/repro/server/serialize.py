"""JSON codecs and request validation for the scheduling daemon.

Everything crossing the wire is plain JSON; this module maps between
those documents and the library's domain objects (mappings, evaluation
options, predictions, schedule results, snapshots) and validates job
submissions *at submit time* so malformed requests are rejected with
HTTP 400 instead of surfacing later as failed jobs.
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.evaluation import EvaluationOptions, MappingPrediction
from repro.monitoring.snapshot import SystemSnapshot
from repro.schedulers import SCHEDULERS
from repro.schedulers.base import ScheduleResult
from repro.server.protocol import ApiError

__all__ = [
    "JOB_KINDS",
    "MAX_BATCH_JOBS",
    "options_from_dict",
    "prediction_to_dict",
    "schedule_result_to_dict",
    "snapshot_to_dict",
    "validate_batch_payload",
    "validate_job_payload",
    "validate_load_events",
    "validate_remap_watch",
]

JOB_KINDS = ("schedule", "predict", "compare")

_OPTION_FIELDS = {f.name for f in fields(EvaluationOptions)}


# -- inbound ------------------------------------------------------------
def options_from_dict(doc: dict | None) -> EvaluationOptions:
    """Parse an evaluation-options document (term toggles)."""
    if doc is None:
        return EvaluationOptions()
    if not isinstance(doc, dict):
        raise ApiError(400, "bad-request", "options must be a JSON object")
    unknown = set(doc) - _OPTION_FIELDS
    if unknown:
        raise ApiError(
            400,
            "bad-request",
            f"unknown evaluation option(s) {sorted(unknown)}; valid: {sorted(_OPTION_FIELDS)}",
        )
    for name, value in doc.items():
        if not isinstance(value, bool):
            raise ApiError(400, "bad-request", f"option {name!r} must be a boolean")
    return EvaluationOptions(**doc)


def _node_list(value: object, what: str) -> list[str]:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(n, str) and n for n in value)
    ):
        raise ApiError(400, "bad-request", f"{what} must be a non-empty list of node ids")
    return list(value)


def _resolve_app(service, name: object) -> str:
    """Case-insensitive profile lookup, mirroring the CLI's resolution."""
    if not isinstance(name, str) or not name:
        raise ApiError(400, "bad-request", "payload field 'app' must be a profile name")
    stored = {app.lower(): app for app in service.profiled_applications}
    try:
        return stored[name.lower()]
    except KeyError:
        raise ApiError(
            400,
            "unknown-application",
            f"no stored profile for {name!r} "
            f"(have: {', '.join(service.profiled_applications) or 'none'})",
        ) from None


def validate_job_payload(service, doc: dict) -> tuple[str, dict]:
    """Validate a ``POST /v1/jobs`` body against the service's state.

    Returns ``(kind, normalized payload)``; raises :class:`ApiError`
    (status 400) describing the first problem found.  The normalized
    payload is what the worker executes — app name canonicalized, node
    ids checked against the cluster, seed and options materialized.
    """
    kind = doc.get("kind")
    if kind not in JOB_KINDS:
        raise ApiError(
            400, "bad-request", f"payload field 'kind' must be one of {', '.join(JOB_KINDS)}"
        )
    # 'id' lets a caller pick the job id (the fleet router mints
    # globally-unique ids and rendezvous-hashes them to replicas); the
    # daemon answers 409 if it collides with a live job.
    job_id = doc.get("id")
    if job_id is not None and (
        not isinstance(job_id, str) or not job_id or len(job_id) > 128
    ):
        raise ApiError(
            400, "bad-request", "payload field 'id' must be a non-empty string of <= 128 chars"
        )
    known = {
        "id",
        "kind",
        "app",
        "seed",
        "options",
        "scheduler",
        "pool",
        "arch",
        "nodes",
        "mappings",
        "workers",
        "time_budget",
    }
    unknown = set(doc) - known
    if unknown:
        raise ApiError(400, "bad-request", f"unknown payload field(s) {sorted(unknown)}")

    app = _resolve_app(service, doc.get("app"))
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ApiError(400, "bad-request", "payload field 'seed' must be an integer")
    options_from_dict(doc.get("options"))  # fail fast; worker re-parses

    cluster_nodes = set(service.cluster.node_ids())
    payload: dict = {"app": app, "seed": seed, "options": doc.get("options")}

    if kind != "schedule":
        for field in ("workers", "time_budget"):
            if field in doc:
                raise ApiError(
                    400, "bad-request", f"payload field {field!r} is only valid for schedule jobs"
                )

    if kind == "schedule":
        scheduler = doc.get("scheduler", "cs")
        if not isinstance(scheduler, str) or scheduler.lower() not in SCHEDULERS:
            raise ApiError(
                400,
                "bad-request",
                f"unknown scheduler {scheduler!r}; valid: {', '.join(sorted(SCHEDULERS))}",
            )
        if "pool" in doc and "arch" in doc:
            raise ApiError(400, "bad-request", "give either 'pool' or 'arch', not both")
        if "pool" in doc:
            pool = _node_list(doc["pool"], "pool")
            unknown_nodes = sorted(set(pool) - cluster_nodes)
            if unknown_nodes:
                raise ApiError(
                    400, "bad-request", f"pool contains unknown node(s) {unknown_nodes[:5]}"
                )
        elif "arch" in doc:
            try:
                pool = service.cluster.nodes_by_arch(doc["arch"])
            except (KeyError, AttributeError):
                raise ApiError(
                    400, "bad-request", f"no nodes of architecture {doc['arch']!r}"
                ) from None
        else:
            pool = service.cluster.node_ids()
        workers = doc.get("workers", 1)
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ApiError(
                400,
                "bad-request",
                f"payload field 'workers' must be an integer >= 1, got {workers!r}",
            )
        time_budget = doc.get("time_budget")
        if time_budget is not None and (
            not isinstance(time_budget, (int, float))
            or isinstance(time_budget, bool)
            or time_budget <= 0
        ):
            raise ApiError(
                400,
                "bad-request",
                f"payload field 'time_budget' must be a number of seconds > 0, got {time_budget!r}",
            )
        payload.update(
            scheduler=scheduler.lower(),
            pool=pool,
            workers=workers,
            time_budget=time_budget,
        )
    elif kind == "predict":
        nodes = _node_list(doc.get("nodes"), "nodes")
        unknown_nodes = sorted(set(nodes) - cluster_nodes)
        if unknown_nodes:
            raise ApiError(
                400, "bad-request", f"mapping uses unknown node(s) {unknown_nodes[:5]}"
            )
        payload.update(nodes=nodes)
    else:  # compare
        mappings = doc.get("mappings")
        if not isinstance(mappings, list) or not mappings:
            raise ApiError(400, "bad-request", "mappings must be a non-empty list of node-id lists")
        checked = []
        for i, candidate in enumerate(mappings):
            nodes = _node_list(candidate, f"mappings[{i}]")
            unknown_nodes = sorted(set(nodes) - cluster_nodes)
            if unknown_nodes:
                raise ApiError(
                    400,
                    "bad-request",
                    f"mappings[{i}] uses unknown node(s) {unknown_nodes[:5]}",
                )
            checked.append(nodes)
        payload.update(mappings=checked)
    return kind, payload


#: Upper bound on jobs per ``POST /v1/jobs:batch`` request; a client
#: wanting more splits into multiple batches (each is atomic on its own).
MAX_BATCH_JOBS = 256


def validate_batch_payload(service, doc: dict) -> list[tuple[str, dict]]:
    """Validate a ``POST /v1/jobs:batch`` body: ``{"jobs": [job, ...]}``.

    All-or-nothing: every entry must validate (each is a full
    ``POST /v1/jobs`` document) or the whole batch is rejected with a
    400 whose message names the offending index as ``jobs[i]``.
    Returns the ``(kind, normalized payload)`` pairs in request order.
    """
    unknown = set(doc) - {"jobs"}
    if unknown:
        raise ApiError(400, "bad-request", f"unknown payload field(s) {sorted(unknown)}")
    entries = doc.get("jobs")
    if not isinstance(entries, list) or not entries:
        raise ApiError(
            400, "bad-request", "payload field 'jobs' must be a non-empty list of job documents"
        )
    if len(entries) > MAX_BATCH_JOBS:
        raise ApiError(
            400,
            "bad-request",
            f"batch of {len(entries)} jobs exceeds the limit of {MAX_BATCH_JOBS}",
        )
    validated: list[tuple[str, dict]] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ApiError(400, "bad-request", f"jobs[{i}]: must be a JSON object")
        try:
            validated.append(validate_job_payload(service, entry))
        except ApiError as exc:
            raise ApiError(exc.status, exc.code, f"jobs[{i}]: {exc.message}") from None
    return validated


def _number(
    doc: dict,
    name: str,
    default: float,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
    exclusive: bool = False,
) -> float:
    """Pull an optional numeric field with range validation."""
    value = doc.get(name, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ApiError(400, "bad-request", f"payload field {name!r} must be a number")
    if minimum is not None and (value <= minimum if exclusive else value < minimum):
        bound = f"> {minimum}" if exclusive else f">= {minimum}"
        raise ApiError(400, "bad-request", f"payload field {name!r} must be {bound}")
    if maximum is not None and value > maximum:
        raise ApiError(400, "bad-request", f"payload field {name!r} must be <= {maximum}")
    return float(value)


def _checked_nodes(service, value: object, what: str) -> list[str]:
    nodes = _node_list(value, what)
    unknown = sorted(set(nodes) - set(service.cluster.node_ids()))
    if unknown:
        raise ApiError(400, "bad-request", f"{what} uses unknown node(s) {unknown[:5]}")
    return nodes


def validate_remap_watch(service, doc: object) -> dict:
    """Validate a ``POST /v1/remap/watch`` body.

    Returns the normalized watch configuration: app canonicalized,
    mapping/pool node ids checked against the cluster, tuning knobs
    (drift threshold, hysteresis, cooldown, safety factor) defaulted and
    range-checked.  Raises :class:`ApiError` (status 400) otherwise.
    """
    if not isinstance(doc, dict):
        raise ApiError(400, "bad-request", "watch payload must be a JSON object")
    known = {
        "app",
        "mapping",
        "pool",
        "interval_s",
        "threshold",
        "hysteresis",
        "cooldown_s",
        "safety_factor",
        "seed",
        "max_ticks",
    }
    unknown = set(doc) - known
    if unknown:
        raise ApiError(400, "bad-request", f"unknown payload field(s) {sorted(unknown)}")
    app = _resolve_app(service, doc.get("app"))
    mapping = _checked_nodes(service, doc.get("mapping"), "mapping")
    pool = None
    if doc.get("pool") is not None:
        pool = _checked_nodes(service, doc["pool"], "pool")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ApiError(400, "bad-request", "payload field 'seed' must be an integer")
    max_ticks = doc.get("max_ticks")
    if max_ticks is not None and (
        not isinstance(max_ticks, int) or isinstance(max_ticks, bool) or max_ticks < 1
    ):
        raise ApiError(400, "bad-request", "payload field 'max_ticks' must be an integer >= 1")
    return {
        "app": app,
        "mapping": mapping,
        "pool": pool,
        "interval_s": _number(doc, "interval_s", 5.0, minimum=0.0, exclusive=True),
        "threshold": _number(doc, "threshold", 0.10, minimum=0.0, exclusive=True),
        "hysteresis": _number(doc, "hysteresis", 0.5, minimum=0.0, maximum=1.0),
        "cooldown_s": _number(doc, "cooldown_s", 0.0, minimum=0.0),
        "safety_factor": _number(doc, "safety_factor", 1.5, minimum=0.0, exclusive=True),
        "seed": seed,
        "max_ticks": max_ticks,
    }


def validate_load_events(service, doc: object) -> list[tuple[str, float, float]]:
    """Validate a ``POST /v1/load`` body.

    Expects ``{"events": [{"node": id, "cpu_load": x, "nic_load": y}]}``
    and returns ``(node, cpu_load, nic_load)`` triples — the daemon
    materializes the actual :class:`~repro.monitoring.load.LoadEvent`
    objects (this module stays import-light).
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("events"), list) or not doc["events"]:
        raise ApiError(400, "bad-request", "payload must be {'events': [...]} with >= 1 event")
    cluster_nodes = set(service.cluster.node_ids())
    events = []
    for i, entry in enumerate(doc["events"]):
        if not isinstance(entry, dict):
            raise ApiError(400, "bad-request", f"events[{i}] must be a JSON object")
        node = entry.get("node")
        if not isinstance(node, str) or node not in cluster_nodes:
            raise ApiError(400, "bad-request", f"events[{i}] names unknown node {node!r}")
        cpu = _number(entry, "cpu_load", 0.0, minimum=0.0)
        nic = _number(entry, "nic_load", 0.0, minimum=0.0, maximum=1.0)
        extra = set(entry) - {"node", "cpu_load", "nic_load"}
        if extra:
            raise ApiError(400, "bad-request", f"events[{i}] has unknown field(s) {sorted(extra)}")
        events.append((node, cpu, nic))
    return events


# -- outbound -----------------------------------------------------------
def schedule_result_to_dict(result: ScheduleResult) -> dict:
    return {
        "scheduler": result.scheduler,
        "mapping": list(result.mapping.as_tuple()),
        "predicted_time": result.predicted_time,
        "evaluations": result.evaluations,
        "wall_time_s": result.wall_time_s,
    }


def prediction_to_dict(prediction: MappingPrediction) -> dict:
    critical = prediction.critical  # one pass: S_M is its R_i + C_i
    return {
        "mapping": list(prediction.mapping.as_tuple()),
        "execution_time": critical.total,
        "critical_rank": critical.rank,
        "critical_breakdown": {
            "node": critical.node_id,
            "computation": critical.computation,
            "communication": critical.communication,
        },
        "processes": [
            {
                "rank": p.rank,
                "node": p.node_id,
                "computation": p.computation,
                "communication": p.communication,
            }
            for p in prediction.processes
        ],
    }


def snapshot_to_dict(snapshot: SystemSnapshot) -> dict:
    return {
        "timestamp": snapshot.timestamp,
        "fingerprint": snapshot.fingerprint(),
        "nodes": {
            nid: {
                "background_load": state.background_load,
                "nic_load": state.nic_load,
                "ncpus": snapshot.ncpus.get(nid, 1),
            }
            for nid, state in sorted(snapshot.states.items())
        },
    }

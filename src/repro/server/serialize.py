"""JSON codecs and request validation for the scheduling daemon.

Everything crossing the wire is plain JSON; this module maps between
those documents and the library's domain objects (mappings, evaluation
options, predictions, schedule results, snapshots) and validates job
submissions *at submit time* so malformed requests are rejected with
HTTP 400 instead of surfacing later as failed jobs.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Collection
from dataclasses import fields

from repro.core.evaluation import EvaluationOptions, MappingPrediction
from repro.monitoring.snapshot import SystemSnapshot
from repro.schedulers import SCHEDULERS
from repro.schedulers.base import ScheduleResult
from repro.server.protocol import ApiError

__all__ = [
    "COMMON_JOB_FIELDS",
    "JOB_FIELDS",
    "JOB_KINDS",
    "LOAD_EVENT_FIELDS",
    "MAX_BATCH_JOBS",
    "WATCH_FIELDS",
    "batch_entries",
    "check_field",
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

#: Upper bound on jobs per ``POST /v1/jobs:batch`` request; a client
#: wanting more splits into multiple batches (each is atomic on its own).
MAX_BATCH_JOBS = 256


def _bad(message: str) -> ApiError:
    return ApiError(400, "bad-request", message)


# -- checks -------------------------------------------------------------
#: What a check receives for a field the document lacks.
_ABSENT = object()

#: ``check(value, name, ctx) -> normalized value``: returns what the
#: worker will read or raises :class:`ApiError` (400).  A bare check
#: fails on ``_ABSENT`` as on any wrong type, so its field is required;
#: :func:`_default` and :func:`_optional` say what an absent one means.
#: A check that looks nothing up in the service ignores *ctx*, and the
#: fleet router calls it without one (:func:`check_field`).
Check = Callable[[object, str, "_Context | None"], object]


class _Context:
    """What one document's checks share: the service, and the cluster's node-id
    set built once however many fields, mappings or events are held against it."""

    def __init__(self, service) -> None:
        self.service = service
        self.node_ids = set(service.cluster.node_ids())


def _default(default: object, check: Check) -> Check:
    """*check*, or *default* for an absent field."""
    return lambda value, name, ctx=None: default if value is _ABSENT else check(value, name, ctx)


def _optional(check: Check) -> Check:
    """*check*, or ``None`` for an absent field (``null`` says absent too)."""
    return lambda value, name, ctx=None: (
        None if value is _ABSENT or value is None else check(value, name, ctx)
    )


def _number(
    *,
    integer: bool = False,
    above: float | None = None,
    minimum: float | None = None,
    maximum: float | None = None,
) -> Check:
    """A finite JSON number in ``(above, maximum]`` / ``[minimum, maximum]``.

    ``json.loads`` reads ``NaN`` and ``±Infinity``; they are refused
    here, with any integer past the float range: one comparison against
    the largest float says no to all of them (``NaN`` fails every
    comparison; ``math.isfinite`` would overflow on the integer).
    """
    wanted = "an integer" if integer else "a finite number"
    for sign, bound in ((">", above), (">=", minimum), ("<=", maximum)):
        if bound is not None:
            wanted += f" {sign} {bound:g}"

    def check(value: object, name: str, ctx: _Context | None = None) -> float:
        if (
            not isinstance(value, int if integer else (int, float))
            or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max
            or (above is not None and value <= above)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)
        ):
            raise _bad(f"payload field {name!r} must be {wanted}")
        return value if integer else float(value)

    return check


def _text(wanted: str, choices: Collection[str] | None = None, limit: int = sys.maxsize) -> Check:
    """A non-empty string of at most *limit* characters, one of *choices* if given."""

    def check(value: object, name: str, ctx: _Context | None = None) -> str:
        if (
            not isinstance(value, str)
            or not 0 < len(value) <= limit
            or (choices is not None and value not in choices)
        ):
            raise _bad(f"payload field {name!r} must be {wanted}")
        return value

    return check


def _app(value: object, name: str, ctx: _Context) -> str:
    """Case-insensitive profile lookup, mirroring the CLI's resolution."""
    if not isinstance(value, str) or not value:
        raise _bad(f"payload field {name!r} must be a profile name")
    stored = {app.lower(): app for app in ctx.service.profiled_applications}
    try:
        return stored[value.lower()]
    except KeyError:
        raise ApiError(
            400,
            "unknown-application",
            f"no stored profile for {value!r} (have: {', '.join(stored.values()) or 'none'})",
        ) from None


def _boolean(value: object, name: str, ctx: _Context | None = None) -> bool:
    if not isinstance(value, bool):
        raise _bad(f"option {name!r} must be a boolean")
    return value


def _options(value: object, name: str, ctx: _Context | None = None) -> dict:
    options_from_dict(value)  # fail fast; the worker re-parses
    return value


def _scheduler(value: object, name: str, ctx: _Context | None = None) -> str:
    if not isinstance(value, str) or value.lower() not in SCHEDULERS:
        raise _bad(f"unknown scheduler {value!r}; valid: {', '.join(sorted(SCHEDULERS))}")
    return value.lower()


def _node_list(value: object, name: str, ctx: _Context) -> list[str]:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(n, str) and n for n in value)
    ):
        raise _bad(f"{name} must be a non-empty list of node ids")
    if not ctx.node_ids.issuperset(value):
        raise _bad(f"{name} uses unknown node(s) {sorted(set(value) - ctx.node_ids)[:5]}")
    return list(value)


def _mappings(value: object, name: str, ctx: _Context) -> list[list[str]]:
    if not isinstance(value, list) or not value:
        raise _bad(f"{name} must be a non-empty list of node-id lists")
    return [_node_list(nodes, f"{name}[{i}]", ctx) for i, nodes in enumerate(value)]


def _node(value: object, name: str, ctx: _Context) -> str:
    if not isinstance(value, str) or value not in ctx.node_ids:
        raise _bad(f"payload field {name!r} must name a node of the cluster")
    return value


# -- the wire contract --------------------------------------------------
#: The fields every job kind takes.  ``id`` and ``seed`` need no
#: service, which is what lets the fleet router hold them to the same
#: rule before it picks a replica.
COMMON_JOB_FIELDS: dict[str, Check] = {
    # A caller may pick the job id (the fleet router mints unique ones and
    # rendezvous-hashes them to replicas); a live duplicate is the daemon's 409.
    "id": _optional(_text("a non-empty string of <= 128 chars", limit=128)),
    "kind": _text(f"one of {', '.join(JOB_KINDS)}", JOB_KINDS),
    "app": _app,
    "seed": _default(0, _number(integer=True)),
    "options": _optional(_options),
}

#: ``POST /v1/jobs``: kind -> field -> check.  A field of another kind
#: is an unknown field.  The order is the normalized payload's key order
#: (``id``, ``kind`` and ``arch`` do not reach the payload), which the
#: journal's ``create`` records repeat byte for byte.
JOB_FIELDS: dict[str, dict[str, Check]] = {
    "schedule": {
        **COMMON_JOB_FIELDS,
        "scheduler": _default("cs", _scheduler),
        "pool": _optional(_node_list),
        "arch": _optional(_text("an architecture name")),
        "workers": _default(1, _number(integer=True, minimum=1)),
        "time_budget": _optional(_number(above=0.0)),
    },
    "predict": {**COMMON_JOB_FIELDS, "nodes": _node_list},
    "compare": {**COMMON_JOB_FIELDS, "mappings": _mappings},
}

#: ``POST /v1/remap/watch``; the order is the watch configuration's.
WATCH_FIELDS: dict[str, Check] = {
    "app": _app,
    "mapping": _node_list,
    "pool": _optional(_node_list),
    "interval_s": _default(5.0, _number(above=0.0)),
    "threshold": _default(0.10, _number(above=0.0)),
    "hysteresis": _default(0.5, _number(minimum=0.0, maximum=1.0)),
    "cooldown_s": _default(0.0, _number(minimum=0.0)),
    "safety_factor": _default(1.5, _number(above=0.0)),
    "seed": _default(0, _number(integer=True)),
    "max_ticks": _optional(_number(integer=True, minimum=1)),
}

#: A job's ``options``: the :class:`EvaluationOptions` term toggles.
OPTION_FIELDS: dict[str, Check] = {
    f.name: _default(f.default, _boolean) for f in fields(EvaluationOptions)
}

#: One entry of ``POST /v1/load``'s ``events``.
LOAD_EVENT_FIELDS: dict[str, Check] = {
    "node": _node,
    "cpu_load": _default(0.0, _number(minimum=0.0)),
    "nic_load": _default(0.0, _number(minimum=0.0, maximum=1.0)),
}


def check_field(table: dict[str, Check], doc: dict, name: str):
    """Field *name* of *doc* through its check in *table* — one that needs no service."""
    return table[name](doc.get(name, _ABSENT), name, None)


def _apply(table: dict[str, Check], doc: object, ctx: _Context | None, what: str) -> dict:
    """*doc* held to *table*: an object, no field the table lacks, every check in table order."""
    if not isinstance(doc, dict):
        raise _bad(f"{what} must be a JSON object")
    unknown = doc.keys() - table.keys()
    if unknown:
        raise _bad(
            f"unknown payload field(s) {sorted(unknown)} for {what}; valid: {', '.join(table)}"
        )
    return {name: check(doc.get(name, _ABSENT), name, ctx) for name, check in table.items()}


def _entries(
    doc: dict, key: str, validate: Callable[[dict], object], limit: int | None = None
) -> list:
    """``validate(entry)`` for every entry of the envelope ``{key: [object, ...]}``.

    The envelope holds nothing else; an entry's error names it as ``key[i]``.
    """
    entries = doc.get(key)
    if doc.keys() - {key} or not isinstance(entries, list) or not entries:
        raise _bad(f"payload must be {{{key!r}: [...]}} with a non-empty list and no other field")
    if limit is not None and len(entries) > limit:
        raise _bad(f"{key}: {len(entries)} entries exceed the limit of {limit}")
    validated = []
    for i, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise _bad("must be a JSON object")
            validated.append(validate(entry))
        except ApiError as exc:
            raise ApiError(exc.status, exc.code, f"{key}[{i}]: {exc.message}") from None
    return validated


# -- inbound ------------------------------------------------------------
def options_from_dict(doc: dict | None) -> EvaluationOptions:
    """Parse an evaluation-options document (term toggles)."""
    if doc is None:
        return EvaluationOptions()
    return EvaluationOptions(**_apply(OPTION_FIELDS, doc, None, "evaluation options"))


def validate_job_payload(service, doc: dict) -> tuple[str, dict]:
    """Validate a ``POST /v1/jobs`` body against the service's state.

    Returns ``(kind, normalized payload)``; raises :class:`ApiError`
    (status 400) describing the first problem found.  The normalized
    payload is what the worker executes — app name canonicalized, node
    ids checked against the cluster, seed and options materialized.
    """
    kind = check_field(COMMON_JOB_FIELDS, doc, "kind")
    payload = _apply(JOB_FIELDS[kind], doc, _Context(service), f"a {kind} job")
    del payload["id"], payload["kind"]
    if kind == "schedule":
        # The one cross-field rule: the pool is given, or an
        # architecture's nodes, or the whole cluster.
        pool, arch = payload["pool"], payload.pop("arch")
        if pool is not None and arch is not None:
            raise _bad("give either 'pool' or 'arch', not both")
        if arch is not None:
            try:
                pool = service.cluster.nodes_by_arch(arch)
            except KeyError:
                raise _bad(f"no nodes of architecture {arch!r}") from None
        payload["pool"] = pool or service.cluster.node_ids()
    return kind, payload


def batch_entries(doc: dict, validate: Callable[[dict], object]) -> list:
    """``validate(job)`` for each job of a ``POST /v1/jobs:batch`` body ``{"jobs": [job, ...]}``.

    The envelope check needs no service: the fleet router stamps ids on
    a batch through it before splitting it by replica.
    """
    return _entries(doc, "jobs", validate, MAX_BATCH_JOBS)


def validate_batch_payload(service, doc: dict) -> list[tuple[str, dict]]:
    """Validate a ``POST /v1/jobs:batch`` body.

    All-or-nothing: every entry must validate (each is a full
    ``POST /v1/jobs`` document) or the whole batch is rejected with a
    400 whose message names the offending index as ``jobs[i]``.
    Returns the ``(kind, normalized payload)`` pairs in request order.
    """
    return batch_entries(doc, lambda job: validate_job_payload(service, job))


def validate_remap_watch(service, doc: dict) -> dict:
    """Validate a ``POST /v1/remap/watch`` body.

    Returns the normalized watch configuration: app canonicalized,
    mapping/pool node ids checked against the cluster, tuning knobs
    (drift threshold, hysteresis, cooldown, safety factor) defaulted and
    range-checked.  Raises :class:`ApiError` (status 400) otherwise.
    """
    return _apply(WATCH_FIELDS, doc, _Context(service), "a remap watch")


def validate_load_events(service, doc: dict) -> list[dict]:
    """Validate a ``POST /v1/load`` body.

    Expects ``{"events": [{"node": id, "cpu_load": x, "nic_load": y}]}``
    and returns the events normalized (loads defaulted to 0.0) — the
    daemon materializes the :class:`~repro.monitoring.load.LoadEvent`
    objects (this module stays import-light).
    """
    ctx = _Context(service)
    return _entries(doc, "events", lambda e: _apply(LOAD_EVENT_FIELDS, e, ctx, "a load event"))


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

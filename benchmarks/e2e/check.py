"""Correctness oracle: an in-process CBES answers every request directly.

The oracle is built from the same profile database the replicas serve
and replays each request through the public calls the daemon makes, in
the daemon's order (``validate_job_payload`` -> ``CBES.evaluator`` ->
``predict`` / ``Scheduler.schedule`` -> ``*_to_dict`` ->
``SystemSnapshot.fingerprint``).  What the stack
returned must be bit-identical — the fleet == direct identity the repo
advertises — so any difference is a failed operation, not noise.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.cluster import centurion
from repro.core import CBES, TaskMapping
from repro.profiling import ProfileDatabase
from repro.schedulers import make_scheduler
from repro.server.serialize import (
    options_from_dict,
    prediction_to_dict,
    schedule_result_to_dict,
    validate_job_payload,
)

from trace import NullTracer

#: ``wall_time_s`` is a measurement, not an answer; everything else in a
#: schedule result must repeat exactly.
_UNCHECKED = {"wall_time_s"}


def execute(service: CBES, snapshot, doc: dict, tracer=None) -> dict:
    """One job's result document, computed the way the daemon computes it.

    With a *tracer*, every call is recorded under a span named after the
    layer it belongs to, so a replayed request splits ``server.exec``
    into its parts.
    """
    tracer = tracer if tracer is not None else NullTracer()
    with tracer.span("server.validate"):
        kind, payload = validate_job_payload(service, doc)
    app = payload["app"]
    with tracer.span("core.evaluator"):
        options = options_from_dict(payload.get("options"))
        evaluator = service.evaluator(app, options=options, snapshot=snapshot)
    if kind == "schedule":
        with tracer.span("schedulers.schedule"):
            scheduler = make_scheduler(
                payload["scheduler"],
                parallel=payload.get("workers", 1),
                time_budget=payload.get("time_budget"),
            )
            result = scheduler.schedule(evaluator, payload["pool"], seed=payload["seed"])
        with tracer.span("server.serialize"):
            out = schedule_result_to_dict(result)
    elif kind == "predict":
        with tracer.span("core.predict"):
            prediction = evaluator.predict(TaskMapping(payload["nodes"]))
        with tracer.span("server.serialize"):
            out = prediction_to_dict(prediction)
    else:  # compare
        with tracer.span("core.predict"):
            ranked = evaluator.compare([TaskMapping(m) for m in payload["mappings"]])
        with tracer.span("server.serialize"):
            out = {"ranked": [prediction_to_dict(p) for p in ranked]}
    with tracer.span("monitoring.fingerprint"):
        out["snapshot_fingerprint"] = snapshot.fingerprint()
    return out


class Oracle:
    """Reference answers from an in-process service over the benchmark's db."""

    def __init__(self, db: Path) -> None:
        started = time.monotonic()
        self.service = CBES(centurion())
        ProfileDatabase(db).attach(self.service)
        self.db_load_s = time.monotonic() - started
        # The replicas run --no-monitor with refresh off: one oracle
        # snapshot of the unloaded cluster serves every job.
        self.snapshot = self.service.snapshot().freeze()
        self._answers: dict[str, dict] = {}

    def expected(self, doc: dict, tracer=None) -> dict:
        """The reference result of request *doc* (memoized on its JSON).

        With a *tracer* the request is always executed, under spans.
        """
        key = json.dumps(doc, sort_keys=True)
        answer = self._answers.get(key)
        if answer is None or tracer is not None:
            answer = self._answers[key] = execute(self.service, self.snapshot, doc, tracer)
        return answer

    def matches(self, doc: dict, job: dict) -> bool:
        """Whether job document *job* is ``done`` with exactly the reference result."""
        if job.get("state") != "done" or not isinstance(job.get("result"), dict):
            return False
        want = {k: v for k, v in self.expected(doc).items() if k not in _UNCHECKED}
        got = {k: v for k, v in job["result"].items() if k not in _UNCHECKED}
        return want == got

    def count_failed(self, pairs: list[tuple[dict, dict]]) -> int:
        """How many (request, job document) pairs do not match the reference."""
        return sum(1 for doc, job in pairs if not self.matches(doc, job))


def predicted_time(result: dict) -> float:
    """The predicted application time in a predict or schedule result."""
    return result["predicted_time"] if "predicted_time" in result else result["execution_time"]

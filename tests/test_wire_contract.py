"""The wire contract is the field tables of ``repro.server.serialize``.

``JOB_FIELDS`` / ``WATCH_FIELDS`` / ``LOAD_EVENT_FIELDS`` are the one
declaration of the three request documents; this file holds everything
else to them: the normalized payloads the journal records (pinned), the
non-finite rule, the surfaces that must not drift from the tables
(client builders, CLI flags, docs), and two seeded fuzzers — request
bodies through both front doors and HTTP framing through both parsers.
"""

import asyncio
import inspect
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro._rng import Rng
from repro.cli import build_parser
from repro.cluster import single_switch
from repro.core import CBES
from repro.fleet import RouterThread
from repro.fleet.transport import BackendError, read_response
from repro.server import CbesClient, DaemonThread
from repro.server.protocol import ApiError, HttpRequest, read_request
from repro.server.serialize import (
    JOB_FIELDS,
    JOB_KINDS,
    LOAD_EVENT_FIELDS,
    WATCH_FIELDS,
    validate_job_payload,
    validate_load_events,
    validate_remap_watch,
)
from repro.workloads import SyntheticBenchmark

DOCS = Path(__file__).resolve().parent.parent / "docs"
NON_FINITE = [math.nan, math.inf, -math.inf]


def stub_service(apps=("cg.A", "lu.A")):
    """All a validator reads of a service: the profile names and the cluster."""
    return SimpleNamespace(profiled_applications=list(apps), cluster=single_switch("mini", 6))


class TestPinnedPayloads:
    """The three ``benchmarks/e2e`` documents normalize to the parent's bytes.

    The journal's ``create`` record is this payload encoded, so the key
    order is part of the contract; the ``id`` is what the router stamps.
    """

    @pytest.mark.parametrize(
        "doc, pinned",
        [
            (
                {"kind": "predict", "app": "cg.A", "nodes": ["mini-n00", "mini-n01"], "id": "ab"},
                '["predict",{"app":"cg.A","seed":0,"options":null,'
                '"nodes":["mini-n00","mini-n01"]}]',
            ),
            (
                {
                    "kind": "compare",
                    "app": "cg.A",
                    "mappings": [["mini-n00", "mini-n01"], ["mini-n03", "mini-n02"]],
                    "id": "ab",
                },
                '["compare",{"app":"cg.A","seed":0,"options":null,'
                '"mappings":[["mini-n00","mini-n01"],["mini-n03","mini-n02"]]}]',
            ),
            (
                {"kind": "schedule", "app": "lu.A", "scheduler": "cs", "seed": 3, "id": "ab"},
                '["schedule",{"app":"lu.A","seed":3,"options":null,"scheduler":"cs",'
                '"pool":["mini-n00","mini-n01","mini-n02","mini-n03","mini-n04","mini-n05"],'
                '"workers":1,"time_budget":null}]',
            ),
        ],
        ids=["quote", "compare", "schedule"],
    )
    def test_benchmark_documents(self, doc, pinned):
        normalized = validate_job_payload(stub_service(), doc)
        assert json.dumps(normalized, separators=(",", ":")) == pinned


SCHEDULE = {"kind": "schedule", "app": "cg.A"}
WATCH = {"app": "cg.A", "mapping": ["mini-n00", "mini-n01"]}
WATCH_NUMBERS = ("interval_s", "threshold", "hysteresis", "cooldown_s", "safety_factor", "seed",
                 "max_ticks")


class TestNonFinite:
    """``json.loads`` reads NaN / ±Infinity; no numeric field takes them."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "validate, doc, field",
        [(validate_job_payload, SCHEDULE, name) for name in ("seed", "workers", "time_budget")]
        + [(validate_remap_watch, WATCH, name) for name in WATCH_NUMBERS],
    )
    def test_job_and_watch_numbers(self, validate, doc, field, value):
        with pytest.raises(ApiError) as excinfo:
            validate(stub_service(), {**doc, field: value})
        assert excinfo.value.status == 400 and field in excinfo.value.message

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["cpu_load", "nic_load"])
    def test_load_numbers(self, field, value):
        with pytest.raises(ApiError) as excinfo:
            validate_load_events(stub_service(), {"events": [{"node": "mini-n00", field: value}]})
        assert excinfo.value.status == 400 and "events[0]" in excinfo.value.message

    def test_an_integer_past_the_float_range_is_not_a_number_either(self):
        with pytest.raises(ApiError):
            validate_remap_watch(stub_service(), {**WATCH, "interval_s": 10**400})


def recorded_body(call) -> dict:
    """The request body a client call sends (nothing goes on the wire)."""
    client = CbesClient()
    sent = []

    def record(method, path, body=None):
        sent.append(body)
        return {"job": {"id": "j", "state": "done", "result": {"ranked": []}}, "watch": {}}

    client._request = record
    call(client)
    return sent[0]


class TestSurfacesHeldToTables:
    """Client builders, CLI flags and docs say nothing the tables do not."""

    @pytest.mark.parametrize(
        "builder, table",
        [
            ("schedule", JOB_FIELDS["schedule"]),
            ("predict", JOB_FIELDS["predict"]),
            ("compare", JOB_FIELDS["compare"]),
            ("remap_watch", WATCH_FIELDS),
        ],
    )
    def test_client_builder(self, builder, table):
        signature = inspect.signature(getattr(CbesClient, builder))
        named = {
            name
            for name, param in signature.parameters.items()
            if name not in ("self", "timeout_s") and param.kind is not param.VAR_KEYWORD
        }
        assert named <= table.keys()
        # Every field of the table goes out under its own name (``kind``
        # is the builder itself), and one left at None is not sent.
        marks = {name: f"<{name}>" for name in table if name != "kind"}
        body = recorded_body(lambda client: getattr(client, builder)(**marks))
        assert {name: body[name] for name in marks} == marks
        nothing = recorded_body(lambda client: getattr(client, builder)(**dict.fromkeys(marks)))
        assert nothing.keys() <= {"kind"}

    @staticmethod
    def flags(*command) -> dict:
        """dest -> argparse action of one subcommand, minus the CLI's own flags."""
        parser = build_parser()
        for name in command:
            parser = parser._subparsers._group_actions[0].choices[name]
        own = {"help", "host", "port", "timeout", "no_wait", "wait", "remap_command"}
        return {a.dest: a for a in parser._actions if a.dest not in own}

    def test_submit_flags(self):
        flags = self.flags("submit")
        every_kind = set().union(*(JOB_FIELDS[kind] for kind in JOB_KINDS))
        assert flags.keys() <= every_kind
        assert tuple(flags["kind"].choices) == JOB_KINDS
        # Only the discriminator has a default here; the rest are the server's.
        assert {dest for dest, action in flags.items() if action.default is not None} == {"kind"}

    def test_remap_watch_flags(self):
        flags = self.flags("remap", "watch")
        assert flags.keys() <= WATCH_FIELDS.keys()
        assert all(action.default is None for action in flags.values())

    @pytest.mark.parametrize(
        "page, heading, names",
        [
            ("SERVICE.md", "### Job submission",
             sorted(set().union(*(JOB_FIELDS[kind] for kind in JOB_KINDS)))),
            ("REMAPPING.md", "## The daemon loop", [*WATCH_FIELDS, *LOAD_EVENT_FIELDS]),
        ],
    )
    def test_docs_list_every_field(self, page, heading, names):
        text = (DOCS / page).read_text(encoding="utf-8")
        section = text[text.index(heading):]
        section = section[: section.index("\n## ", 1)] if "\n## " in section[1:] else section
        missing = [name for name in names if f"`{name}" not in section and f'"{name}"' not in section]
        assert not missing


# -- the body fuzzer ------------------------------------------------------
NODES = [f"mini-n{i:02d}" for i in range(6)]
#: What a field is replaced by: every JSON type, the numeric edge cases,
#: and values that are valid somewhere (an id / node id, a node list, a
#: list of node lists).
MENU = [None, True, False, 0, -1, 2**70, 1.5, math.nan, math.inf, "", NODES[0],
        [], [1], NODES[:3], [NODES[:3], NODES[3:]], {}]
ALLOWED = {200, 201, 202, 400, 409, 429}


@pytest.fixture(scope="module")
def doors():
    """One daemon, reached directly and through a 1-replica router."""
    service = CBES(single_switch("mini", 6))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
    service.profile_application(app, 3, seed=1)
    with DaemonThread(service, workers=2, queue_limit=100_000) as daemon:
        with RouterThread([f"{daemon.host}:{daemon.port}"]) as router:
            yield SimpleNamespace(service=service, app=app.name, daemon=daemon, router=router)


def post(client: CbesClient, path: str, body: dict) -> int:
    data = json.dumps(body).encode("utf-8")  # allow_nan: NaN / Infinity go out as such
    status, _headers, _raw = client._roundtrip(
        "POST", path, data, {"Content-Type": "application/json"}
    )
    return status


class TestBodyFuzz:
    """Every field of every document, replaced by every menu value, at both doors."""

    def job_docs(self, app):
        return {
            "schedule": {"kind": "schedule", "app": app, "scheduler": "rs"},
            "predict": {"kind": "predict", "app": app, "nodes": NODES[:3]},
            "compare": {"kind": "compare", "app": app, "mappings": [NODES[:3], NODES[3:]]},
        }

    def fuzz(self, client, path, doc, names, wrap=lambda doc: doc):
        for name in names:
            for value in MENU:
                status = post(client, path, wrap({**doc, name: value}))
                assert status in ALLOWED, (path, name, value, status)
                yield name, value, status

    @pytest.mark.parametrize("door", ["daemon", "router"])
    def test_job_documents(self, doors, door):
        client = getattr(doors, door).client(timeout_s=10.0)
        every = set().union(*JOB_FIELDS.values())
        for kind, doc in self.job_docs(doors.app).items():
            foreign = every - JOB_FIELDS[kind].keys()
            for name, value, status in self.fuzz(client, "/v1/jobs", doc, [*every, "bogus"]):
                if name in foreign or name == "bogus":
                    assert status == 400, (kind, name, value)
                if isinstance(value, float) and not math.isfinite(value):
                    assert status == 400, (kind, name, value)
            # ... and as the one entry of a batch.
            wrap = lambda entry: {"jobs": [entry]}  # noqa: E731
            for name, _value, status in self.fuzz(client, "/v1/jobs:batch", doc, every, wrap):
                assert name not in foreign or status == 400
        for _name, _value, status in self.fuzz(client, "/v1/jobs:batch", {}, ["jobs", "bogus"]):
            assert status == 400  # no menu value is a list of job documents
        assert client.healthz()["status"] == "ok"
        # What was accepted is stored in a form that re-validates to itself.
        jobs = doors.daemon.daemon.store.list()
        assert len(jobs) > 40
        for job in jobs:
            again = validate_job_payload(doors.service, {"kind": job.kind, **job.payload})
            assert again == (job.kind, job.payload)

    def test_schedule_best(self, doors):
        client = doors.router.client(timeout_s=10.0)
        doc = self.job_docs(doors.app)["schedule"]
        list(self.fuzz(client, "/v1/schedule:best", doc, ["kind", "seed", "id"]))
        for timeout_s in ("nan", "inf", "-inf", "0", "-1", "soon", ""):
            status = post(client, f"/v1/schedule:best?timeout_s={timeout_s}", doc)
            assert status == 400, timeout_s

    def test_watch_documents(self, doors):
        client = doors.daemon.client(timeout_s=10.0)
        doc = {"app": doors.app, "mapping": NODES[:3], "max_ticks": 1}
        before = len(client.remap_watches())
        accepted = 0
        for _name, value, status in self.fuzz(
            client, "/v1/remap/watch", doc, [*WATCH_FIELDS, "bogus"]
        ):
            accepted += status == 201
            if isinstance(value, float) and not math.isfinite(value):
                assert status == 400
        watches = client.remap_watches()
        assert len(watches) == before + accepted
        assert all(math.isfinite(watch["interval_s"]) for watch in watches)

    @pytest.mark.parametrize("door", ["daemon", "router"])
    def test_load_documents(self, doors, door):
        client = getattr(doors, door).client(timeout_s=10.0)
        event = {"node": NODES[5], "cpu_load": 0.5, "nic_load": 0.1}
        wrap = lambda entry: {"events": [entry]}  # noqa: E731
        list(self.fuzz(client, "/v1/load", event, [*LOAD_EVENT_FIELDS, "bogus"], wrap))
        list(self.fuzz(client, "/v1/load", {}, ["events", "bogus"]))
        for state in client.snapshot()["nodes"].values():  # nothing non-finite was applied
            assert math.isfinite(state["background_load"]) and 0.0 <= state["nic_load"] <= 1.0


# -- the framing fuzzer ---------------------------------------------------
def frame(start_line: bytes, headers: list[bytes], body: bytes) -> bytes:
    lines = [start_line, *headers, b"Content-Length: %d" % len(body)]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


REQUEST = frame(
    b"POST /v1/jobs HTTP/1.1",
    [b"Host: cbes", b"Content-Type: application/json", b"X-Request-Id: fuzz-1"],
    b'{"kind":"predict","app":"x"}',
)
RESPONSE = frame(
    b"HTTP/1.1 202 Accepted",
    [b"Content-Type: application/json", b"Connection: keep-alive", b"X-Request-Id: fuzz-1"],
    b'{"job":{"id":"j"}}',
)
HOSTILE_HEADERS = [
    b"Content-Length: -1", b"Content-Length: 1_0", b"Content-Length: +3",
    b"Content-Length: 100000000000", b"Content-Length: 0x10", b"Content-Length:",
    b"Transfer-Encoding: chunked", b"Transfer-Encoding: identity", b"no-colon-here",
    b": empty-name", b"X-Long: " + b"a" * 70_000,
]


def mutate(rng: Rng, valid: bytes) -> bytes:
    """One seeded corruption of the frame *valid*: flip, cut, splice, or a hostile / duplicated header."""
    kind = rng.integers(6)
    data = bytearray(valid)
    if kind == 0:  # bit flips
        for _ in range(1 + rng.integers(4)):
            data[rng.integers(len(data))] ^= 1 << rng.integers(8)
        return bytes(data)
    if kind == 1:  # cut
        return bytes(data[: rng.integers(len(data))])
    if kind == 2:  # splice a slice of the frame into itself
        a, b = sorted(rng.integers(len(data), size=2))
        at = rng.integers(len(data))
        return bytes(data[:at] + data[a:b] + data[at:])
    head, _, body = valid.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    if kind == 3:  # a hostile header, somewhere among the others
        extra = HOSTILE_HEADERS[rng.integers(len(HOSTILE_HEADERS))]
    elif kind == 4:  # one of its own headers, twice
        extra = lines[1 + rng.integers(len(lines) - 1)]
    else:  # a header that replaces one of its own
        lines.pop(1 + rng.integers(len(lines) - 1))
        extra = HOSTILE_HEADERS[rng.integers(len(HOSTILE_HEADERS))]
    lines.insert(1 + rng.integers(len(lines)), extra)
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


class TestFramingFuzz:
    """Any bytes are a parse or a typed error within a deadline; never a hang, never untyped."""

    CASES = 5_000  # per parser; >= 10 000 together

    @staticmethod
    async def parse(parser, frame: bytes):
        reader = asyncio.StreamReader(limit=2**16)
        reader.feed_data(frame)
        reader.feed_eof()
        return await asyncio.wait_for(parser(reader), 2.0)

    def test_the_unmutated_frames_parse(self):
        request = asyncio.run(self.parse(read_request, REQUEST))
        assert request.json() == {"kind": "predict", "app": "x"}
        status, _headers, body = asyncio.run(self.parse(lambda r: read_response(r, "b"), RESPONSE))
        assert (status, json.loads(body)) == (202, {"job": {"id": "j"}})

    def test_read_request(self):
        async def run():
            rng = Rng(20050927, 1)
            outcomes = {"request": 0, "eof": 0, "error": 0}
            for _ in range(self.CASES):
                frame = mutate(rng, REQUEST)
                try:
                    parsed = await self.parse(read_request, frame)
                except ApiError as exc:
                    assert 400 <= exc.status < 500, (frame, exc.status)
                    outcomes["error"] += 1
                else:
                    assert parsed is None or isinstance(parsed, HttpRequest), frame
                    outcomes["eof" if parsed is None else "request"] += 1
            return outcomes

        outcomes = asyncio.run(run())
        assert outcomes["request"] > 500 and outcomes["error"] > 500  # the menu reaches both

    def test_read_response(self):
        async def run():
            rng = Rng(20050927, 2)
            parsed = 0
            for _ in range(self.CASES):
                frame = mutate(rng, RESPONSE)
                try:
                    status, headers, body = await self.parse(
                        lambda reader: read_response(reader, "replica"), frame
                    )
                except BackendError:
                    continue
                assert isinstance(status, int) and isinstance(headers, dict)
                assert isinstance(body, bytes)
                parsed += 1
            return parsed

        assert 500 < asyncio.run(run()) < self.CASES

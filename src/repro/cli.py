"""Command-line front end: ``python -m repro <command>``.

Drives the CBES service against the built-in testbeds from a shell —
the operational workflow of the paper (calibrate once, profile
applications, serve scheduling requests) with the profile database as
persistent state between invocations.

Commands
--------

``calibrate``  run the off-line calibration phase and store the model
``profile``    profile a built-in application and store its profile
``schedule``   pick a mapping for a stored application profile
``predict``    evaluate an explicit mapping
``inspect``    show stored profiles / cluster facts
``demo``       end-to-end walkthrough on Orange Grove
``serve``      run the scheduling daemon (JSON-over-HTTP service)
``fleet``      run a sharded multi-daemon router over N replica daemons
``submit``     submit a schedule/predict job to a running daemon
``metrics``    pretty-print a running daemon's metrics (``--raw``: exposition)
``jobs``       list a running daemon's jobs (or show one)
``remap``      drive a daemon's online-remapping loop
               (``watch`` | ``wait`` | ``decisions`` | ``inject``)

The daemon logs through the ``repro.server`` logger hierarchy; pass
``--log-level debug|info|warning`` to ``serve`` to control verbosity
(per-request access lines with request ids live in
``repro.server.access``).

Building the parser imports only what the flags name; a command imports
its implementation when it runs, so ``fleet`` and the client commands
never load the daemon, the journal, the workload models or the
simulator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro._util import check_positive
from repro.schedulers import SCHEDULERS
from repro.server.client import BackpressureError, CbesClient, JobFailed, ServerError
from repro.server.config import DAEMON_FIELDS, REPLICA_FIELDS, daemon_config
from repro.server.jobs import JobState
from repro.server.serialize import JOB_FIELDS, JOB_KINDS, WATCH_FIELDS

if TYPE_CHECKING:
    from repro.cluster import Cluster
    from repro.core import CBES
    from repro.profiling import ProfileDatabase

__all__ = ["main", "build_parser"]

#: ``--cluster`` names -> the :mod:`repro.cluster` factory of each testbed.
CLUSTERS = {"orange-grove": "orange_grove", "centurion": "centurion"}


def make_app(spec: str):
    """Build a workload model from a CLI spec like ``lu.A`` or ``hpl.5000``."""
    from repro.workloads import (
        BT,
        CG,
        EP,
        HPL,
        IS,
        LU,
        MG,
        SAMRAI,
        SMG2000,
        SP,
        Aztec,
        Sweep3D,
        SyntheticBenchmark,
        Towhee,
    )

    name, _, arg = spec.partition(".")
    name = name.lower()
    try:
        if name in ("lu", "bt", "sp", "mg", "cg", "is", "ep"):
            cls = {"lu": LU, "bt": BT, "sp": SP, "mg": MG, "cg": CG, "is": IS, "ep": EP}[name]
            return cls(arg or "A")
        if name == "hpl":
            return HPL(int(arg or 10000))
        if name == "smg2000":
            return SMG2000(int(arg or 50))
        if name == "aztec":
            return Aztec(int(arg or 500))
        if name == "sweep3d":
            return Sweep3D()
        if name == "samrai":
            return SAMRAI()
        if name == "towhee":
            return Towhee()
        if name == "synthetic":
            return SyntheticBenchmark()
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: bad application spec {spec!r}: {exc}") from exc
    raise SystemExit(f"error: unknown application {spec!r}")


def build_cluster(name: str) -> Cluster:
    import repro.cluster

    try:
        factory = getattr(repro.cluster, CLUSTERS[name])
    except KeyError:
        raise SystemExit(
            f"error: unknown cluster {name!r}; valid: {', '.join(sorted(CLUSTERS))}"
        ) from None
    return factory()


def open_service(args) -> tuple[CBES, ProfileDatabase]:
    """Service wired to the persistent database (calibrating if needed)."""
    from repro.core import CBES
    from repro.profiling import ProfileDatabase

    cluster = build_cluster(args.cluster)
    service = CBES(cluster)
    db = ProfileDatabase(args.db)
    try:
        db.attach(service)
    except ValueError as exc:  # a torn or foreign-cluster database file
        raise SystemExit(f"error: {exc}") from None
    if not cluster.is_calibrated:
        raise SystemExit(
            f"error: cluster {cluster.name!r} is not calibrated in {args.db!r}; "
            "run `calibrate` first"
        )
    return service, db


# -- commands -----------------------------------------------------------
def cmd_calibrate(args) -> int:
    from repro.core import CBES
    from repro.profiling import ProfileDatabase

    cluster = build_cluster(args.cluster)
    service = CBES(cluster)
    try:
        report = service.calibrate(seed=args.seed, noise=args.noise)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    db = ProfileDatabase(args.db)
    db.save_latency_model(cluster.name, cluster.latency_model)
    low, high, spread = cluster.latency_model.spread(1024)
    print(
        f"calibrated {cluster.name}: {report.pair_benchmarks} pairs in "
        f"{report.rounds} rounds ({report.parallel_speedup:.0f}x clique speedup)"
    )
    print(f"latency @1KB: {low * 1e6:.0f}..{high * 1e6:.0f} us (spread {spread * 100:.0f}%)")
    print(f"stored system profile in {db.root}")
    return 0


def cmd_profile(args) -> int:
    service, db = open_service(args)
    app = make_app(args.app)
    try:
        profile = service.profile_application(app, args.nprocs, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    db.save_profile(profile)
    comp, comm = profile.comp_comm_ratio
    print(
        f"profiled {app.name} on {args.nprocs} processes: "
        f"computation {comp:.0%} / communication {comm:.0%}"
    )
    print(f"stored profile in {db.root}")
    return 0


def _pool(service: CBES, args) -> list[str]:
    if args.arch:
        try:
            return service.cluster.nodes_by_arch(args.arch)
        except KeyError:
            raise SystemExit(
                f"error: no nodes of architecture {args.arch!r}; valid: "
                f"{', '.join(sorted(service.cluster.architectures()))}"
            ) from None
    return service.cluster.node_ids()


def resolve_app_name(service: CBES, spec: str) -> str:
    """Match a CLI app spec against stored profiles, case-insensitively."""
    stored = service.profiled_applications
    lowered = {name.lower(): name for name in stored}
    try:
        return lowered[spec.lower()]
    except KeyError:
        raise SystemExit(
            f"error: no stored profile for {spec!r}; run `profile` first "
            f"(have: {', '.join(stored) or 'none'})"
        ) from None


def cmd_schedule(args) -> int:
    service, _ = open_service(args)
    app_name = resolve_app_name(service, args.app)
    kwargs: dict = {}
    if args.islands != 1:
        if args.scheduler != "ga":
            raise SystemExit("error: --islands requires --scheduler ga")
        kwargs["islands"] = args.islands
    try:
        scheduler = SCHEDULERS[args.scheduler](
            parallel=args.parallel, time_budget=args.time_budget, **kwargs
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    result = service.schedule(app_name, scheduler, _pool(service, args), seed=args.seed)
    print(f"scheduler: {result.scheduler} ({result.evaluations} evaluations, "
          f"{result.wall_time_s:.2f}s)")
    print(f"predicted execution time: {result.predicted_time:.2f} s")
    for rank, node in sorted(result.mapping.as_dict().items()):
        print(f"  rank {rank} -> {node}")
    return 0


def cmd_predict(args) -> int:
    from repro.core import InvalidMappingError, TaskMapping

    service, _ = open_service(args)
    evaluator = service.evaluator(resolve_app_name(service, args.app))
    try:
        prediction = evaluator.predict(TaskMapping(args.nodes))
    except InvalidMappingError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"predicted execution time: {prediction.execution_time:.2f} s")
    crit = prediction.breakdown(prediction.critical_rank)
    print(
        f"critical rank {prediction.critical_rank} on {crit.node_id}: "
        f"R={crit.computation:.2f}s C={crit.communication:.2f}s"
    )
    return 0


def cmd_inspect(args) -> int:
    from repro.profiling import ProfileDatabase

    cluster = build_cluster(args.cluster)
    db = ProfileDatabase(args.db)
    print(f"cluster: {cluster}")
    for arch_name in sorted(cluster.architectures()):
        nodes = cluster.nodes_by_arch(arch_name)
        print(f"  {arch_name}: {len(nodes)} nodes ({nodes[0]}..{nodes[-1]})")
    print(f"system profile stored: {db.has_system_profile(cluster.name)}")
    try:
        apps = db.applications()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"stored application profiles: {', '.join(apps) if apps else '(none)'}")
    return 0


def cmd_demo(args) -> int:
    from repro.cluster import orange_grove
    from repro.core import CBES
    from repro.workloads import LU

    print("== CBES demo: LU on Orange Grove ==")
    cluster = orange_grove()
    service = CBES(cluster)
    report = service.calibrate(seed=1)
    print(f"calibrated in {report.rounds} clique rounds")
    app = LU("A")
    service.profile_application(app, 8, seed=0)
    pool = cluster.nodes_by_arch("alpha-533")
    cs = service.schedule(app.name, SCHEDULERS["cs"](), pool, seed=args.seed)
    rs = service.schedule(app.name, SCHEDULERS["rs"](), pool, seed=args.seed)
    t_cs = service.simulator.run(
        app.program(8), cs.mapping.as_dict(), seed=42, arch_affinity=app.arch_affinity
    ).total_time
    t_rs = service.simulator.run(
        app.program(8), rs.mapping.as_dict(), seed=42, arch_affinity=app.arch_affinity
    ).total_time
    print(f"CS: predicted {cs.predicted_time:.1f}s, measured {t_cs:.1f}s")
    print(f"RS: predicted {rs.predicted_time:.1f}s, measured {t_rs:.1f}s")
    print(f"speedup from CBES scheduling: {(t_rs - t_cs) / t_rs * 100:.1f}%")
    return 0


# -- service commands ---------------------------------------------------
def configure_logging(level_name: str) -> None:
    """Enable the structured ``repro.server`` logs on stderr."""
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        raise SystemExit(f"error: unknown log level {level_name!r}")
    logging.basicConfig(
        level=level, format="%(asctime)s %(levelname)-7s %(name)s: %(message)s"
    )


def cmd_serve(args) -> int:
    from repro.server.daemon import CbesDaemon

    configure_logging(args.log_level)
    service, _ = open_service(args)
    monitor_kwargs = None
    if args.monitor:
        monitor_kwargs = {"forecaster": args.forecaster, "seed": args.seed}
        service.start_monitoring(**monitor_kwargs)
    daemon = CbesDaemon(
        service,
        host=args.host,
        port=args.port,
        monitor_kwargs=monitor_kwargs,
        **_fields(args, DAEMON_FIELDS),
    )

    async def _serve() -> int:
        host, port = await daemon.start()
        print(f"serving on http://{host}:{port}", flush=True)
        await daemon.serve_forever()
        return 0

    return asyncio.run(_serve())


def cmd_fleet(args) -> int:
    configure_logging(args.log_level)
    from repro.fleet import FleetRouter, FleetSupervisor

    if args.backends:
        backends = [b.strip() for b in args.backends.split(",") if b.strip()]
        supervisor = None
    elif args.replicas >= 1:
        supervisor = FleetSupervisor(
            replicas=args.replicas,
            db=args.db,
            cluster=args.cluster,
            seed=args.seed,
            data_root=args.data_root,
            log_level=args.log_level,
            **_fields(args, DAEMON_FIELDS),
        )
        backends = supervisor.start()
    else:
        raise SystemExit("error: give --replicas N or --backends host:port,...")
    router = FleetRouter(backends, host=args.host, port=args.port)

    async def _serve() -> int:
        host, port = await router.start()
        print(f"fleet router on http://{host}:{port} ({len(backends)} replica(s))", flush=True)
        try:
            await router.serve_forever()
        finally:
            if supervisor is not None:
                supervisor.stop()
        return 0

    return asyncio.run(_serve())


def _client(args) -> CbesClient:
    return CbesClient(args.host, args.port, timeout_s=args.timeout)


def _node_ids(text: str) -> list[str]:
    """A comma-separated node-id argument (``--nodes``, ``--pool``, a mapping)."""
    return [n.strip() for n in text.split(",") if n.strip()]


def _fields(args, table) -> dict:
    """The parsed flags that are fields of the document *table* describes.

    A flag that becomes a field is named like it, so the tables say what
    is sent or given; a wire field left at ``None`` is not sent and the
    server's default applies.
    """
    return {name: getattr(args, name) for name in table if hasattr(args, name)}


def _setting(name: str):
    """The argparse ``type`` of daemon setting *name*: parse, then the row's check."""
    default = DAEMON_FIELDS[name].default
    parse = str if default is None else type(default)

    def convert(text: str):
        value = parse(text)  # a ValueError here is argparse's "invalid int value"
        try:
            return daemon_config(**{name: value})[name]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = parse.__name__
    return convert


def _seconds(text: str) -> float:
    """The argparse ``type`` of ``--timeout``: a finite number of seconds > 0."""
    try:
        return check_positive(float(text), "timeout")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_settings(p: argparse.ArgumentParser, names, per: str = "") -> None:
    """Register the ``repro serve`` flags of the daemon settings *names*."""
    for name in names:
        row = DAEMON_FIELDS[name]
        p.add_argument(
            row.flag, dest=name, type=_setting(name), default=row.default, help=row.help + per
        )


def cmd_submit(args) -> int:
    client = _client(args)
    fields = _fields(args, JOB_FIELDS[args.kind])
    if args.kind == "schedule":
        fields["pool"] = args.nodes  # --nodes: a schedule job's pool, a predict job's mapping
    job = client.submit(**fields)
    print(f"job {job['id']} {job['state']}")
    if args.no_wait:
        return 0
    result = client.wait(job["id"], timeout_s=args.timeout)["result"]
    if args.kind == "schedule":
        print(
            f"scheduler: {result['scheduler']} ({result['evaluations']} evaluations, "
            f"{result['wall_time_s']:.2f}s)"
        )
        print(f"predicted execution time: {result['predicted_time']:.2f} s")
        for rank, node in enumerate(result["mapping"]):
            print(f"  rank {rank} -> {node}")
    else:
        print(f"predicted execution time: {result['execution_time']:.2f} s")
        crit = result["critical_breakdown"]
        print(
            f"critical rank {result['critical_rank']} on {crit['node']}: "
            f"R={crit['computation']:.2f}s C={crit['communication']:.2f}s"
        )
    return 0


def cmd_jobs(args) -> int:
    client = _client(args)
    if args.job_id:
        print(json.dumps(client.job(args.job_id), indent=2, sort_keys=True))
        return 0
    health = client.healthz()
    try:
        print(
            f"daemon {health['status']}: uptime {health['uptime_s']:.0f}s, "
            f"queue {health['queue_depth']}/{health['queue_limit']}, jobs {health['jobs']}"
        )
        for job in client.jobs(state=args.state, limit=args.limit, after=args.after):
            line = f"  {job['id']}  {job['kind']:<9} {job['state']:<8}"
            if job["state"] == "done" and "result" in job:
                result = job["result"]
                time_key = "predicted_time" if "predicted_time" in result else "execution_time"
                if time_key in result:
                    line += f" {result[time_key]:8.2f} s"
            elif job["state"] == "failed":
                line += f" {job.get('error', '')}"
            print(line)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServerError(502, "bad-response", f"answer of the wrong shape: {exc!r:.200}") from None
    return 0


def _parse_load_spec(spec: str) -> list[dict]:
    """Parse ``node=cpu[:nic],node=cpu[:nic],...`` into event documents."""
    events = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        node, sep, loads = part.partition("=")
        if not sep or not node:
            raise SystemExit(f"error: bad load spec {part!r} (want node=cpu or node=cpu:nic)")
        cpu_text, _, nic_text = loads.partition(":")
        try:
            cpu = float(cpu_text)
            nic = float(nic_text) if nic_text else 0.0
        except ValueError:
            raise SystemExit(f"error: bad load numbers in {part!r}") from None
        events.append({"node": node, "cpu_load": cpu, "nic_load": nic})
    if not events:
        raise SystemExit("error: load spec names no nodes")
    return events


def cmd_remap(args) -> int:
    client = _client(args)
    if args.remap_command == "inject":
        result = client.inject_load(_parse_load_spec(args.load))
        for event in result["applied"]:
            print(
                f"{event['node']}: cpu_load={event['cpu_load']:g} "
                f"nic_load={event['nic_load']:g}"
            )
        print(f"snapshot {result['snapshot_fingerprint'][:12]} adopted")
        return 0
    if args.remap_command == "wait":
        decision = client.wait_decision(args.watch_id, timeout_s=args.timeout)
        print(json.dumps(decision, indent=2, sort_keys=True))
        return 0
    if args.remap_command == "decisions":
        decisions = client.remap_decisions(args.limit)
        if args.json:
            print(json.dumps(decisions, indent=2, sort_keys=True))
            return 0
        if not decisions:
            print("no remap decisions recorded")
            return 0
        for doc in decisions:
            verdict = "remap" if doc["remap"] else "stay"
            print(
                f"{doc['watch_id']} tick {doc['tick']:>3} ({doc['app']}): {verdict}  "
                f"drift {doc['drift'] * 100:+.1f}%  savings {doc['savings_s']:.2f}s  "
                f"cost {doc['migration_cost_s']:.2f}s  moves {len(doc['moves'])}"
            )
        return 0
    # watch
    watch = client.remap_watch(**_fields(args, WATCH_FIELDS))
    print(
        f"watch {watch['id']} on {watch['app']}: baseline "
        f"{watch['baseline_s']:.2f}s, every {watch['interval_s']:g}s"
    )
    if not args.wait:
        return 0
    decision = client.wait_decision(watch["id"], timeout_s=args.timeout)
    verdict = "remap" if decision["remap"] else "stay"
    print(
        f"decision at tick {decision['tick']}: {verdict} "
        f"(drift {decision['drift'] * 100:+.1f}%, savings {decision['savings_s']:.2f}s, "
        f"migration cost {decision['migration_cost_s']:.2f}s)"
    )
    if decision["remap"]:
        for move in decision["moves"]:
            print(
                f"  rank {move['rank']}: {move['source']} -> {move['destination']} "
                f"({move['seconds'] * 1e3:.1f} ms)"
            )
    return 0


def cmd_metrics(args) -> int:
    client = _client(args)
    if args.raw:
        print(client.metrics_text(), end="")
        return 0
    for name, family in client.metrics().items():
        print(f"{name} ({family['type']})")
        for sample in family["samples"]:
            labels = sample["labels"]
            tag = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if family["type"] == "histogram":
                count = sample["count"]
                mean = sample["sum"] / count if count else 0.0
                print(f"  {tag or '(all)'}  count={count}  mean={mean * 1e3:.2f} ms")
            else:
                print(f"  {tag or '(all)'}  {sample['value']:g}")
    return 0


# -- parser ---------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CBES reproduction: calibrate, profile, and schedule on simulated clusters.",
    )
    parser.add_argument("--db", default=".cbes-db", help="profile database directory")
    parser.add_argument(
        "--cluster", default="orange-grove", choices=sorted(CLUSTERS), help="target cluster"
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="run the off-line calibration phase")
    p.add_argument("--noise", type=float, default=0.01, help="measurement noise sigma")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("profile", help="profile an application")
    p.add_argument("app", help="application spec, e.g. lu.A, hpl.5000, aztec.500")
    p.add_argument("--nprocs", type=int, default=8)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("schedule", help="pick a mapping for a profiled application")
    p.add_argument("app")
    p.add_argument("--scheduler", default="cs", choices=sorted(SCHEDULERS))
    p.add_argument("--arch", default=None, help="restrict the pool to one architecture")
    p.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="search worker processes (SA restarts / GA islands fan out)",
    )
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds; returns the best-so-far at expiry",
    )
    p.add_argument(
        "--islands",
        type=int,
        default=1,
        help="GA island populations with ring migration (ga scheduler only)",
    )
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("predict", help="evaluate an explicit mapping")
    p.add_argument("app")
    p.add_argument("nodes", type=_node_ids, help="comma-separated node ids, rank order")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="show cluster facts and stored profiles")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("demo", help="end-to-end walkthrough")
    p.set_defaults(func=cmd_demo)

    def add_endpoint_args(p: argparse.ArgumentParser, what="daemon", timeout=True) -> None:
        p.add_argument("--host", default="127.0.0.1", help=f"{what} address")
        p.add_argument("--port", type=int, default=8080, help=f"{what} port")
        if timeout:
            p.add_argument(
                "--timeout", type=_seconds, default=300.0, help="request/wait timeout (s)"
            )

    p = sub.add_parser("serve", help="run the scheduling daemon")
    add_endpoint_args(p, timeout=False)
    _add_settings(p, [name for name, row in DAEMON_FIELDS.items() if row.flag is not None])
    p.add_argument(
        "--no-monitor",
        dest="monitor",
        action="store_false",
        help="serve oracle snapshots instead of monitored/forecast ones",
    )
    p.add_argument("--forecaster", default="last-value", help="monitor forecaster kind")
    p.add_argument("--log-level", default="info", help="repro.server log level")
    p.set_defaults(func=cmd_serve, monitor=True)

    p = sub.add_parser("fleet", help="run a sharded multi-daemon router")
    add_endpoint_args(p, "router", timeout=False)
    p.add_argument(
        "--replicas", type=int, default=0, help="spawn N `repro serve` replica subprocesses"
    )
    p.add_argument(
        "--backends",
        default=None,
        help="route to these already-running daemons (comma-separated host:port)",
    )
    _add_settings(p, REPLICA_FIELDS, " (each replica)")
    p.add_argument(
        "--data-root",
        default=None,
        help="per-replica journal directories under this root (crash-recoverable replicas)",
    )
    p.add_argument("--log-level", default="info", help="repro.fleet log level")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("submit", help="submit a job to a running daemon")
    add_endpoint_args(p)
    p.add_argument("app", help="profiled application name, e.g. lu.A")
    p.add_argument("--kind", default="schedule", choices=JOB_KINDS)
    # A flag not given is not sent: the server states the defaults.
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), help="search algorithm (schedule)")
    p.add_argument("--arch", help="restrict the pool to one architecture")
    p.add_argument(
        "--nodes",
        type=_node_ids,
        help="comma-separated node ids (the pool for schedule, the mapping for predict)",
    )
    p.add_argument("--workers", type=int, help="search worker processes for schedule jobs")
    p.add_argument(
        "--time-budget", type=float, help="wall-clock budget in seconds for schedule jobs"
    )
    p.add_argument("--no-wait", action="store_true", help="print the job id and return")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("metrics", help="pretty-print a running daemon's metrics")
    add_endpoint_args(p)
    p.add_argument(
        "--raw", action="store_true", help="print the Prometheus text exposition verbatim"
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("jobs", help="list a running daemon's jobs")
    add_endpoint_args(p)
    p.add_argument("job_id", nargs="?", default=None, help="show one job as JSON")
    p.add_argument(
        "--state",
        default=None,
        choices=[state.value for state in JobState],
        help="list only jobs in this state",
    )
    p.add_argument("--limit", type=int, default=None, help="page size")
    p.add_argument("--after", default=None, help="list jobs submitted after this job id")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("remap", help="drive a running daemon's online-remapping loop")
    rsub = p.add_subparsers(dest="remap_command", required=True)

    rw = rsub.add_parser("watch", help="register a remap watch on a running application")
    add_endpoint_args(rw)
    rw.add_argument("app", help="profiled application name, e.g. lu.A")
    rw.add_argument(
        "mapping", type=_node_ids, help="comma-separated node ids, rank order (current mapping)"
    )
    rw.add_argument("--pool", type=_node_ids, help="comma-separated candidate node pool")
    # A flag not given is not sent: the server states the defaults.
    rw.add_argument("--interval", dest="interval_s", type=float, help="watch tick period (s)")
    rw.add_argument("--threshold", type=float, help="relative drift that fires")
    rw.add_argument(
        "--cooldown", dest="cooldown_s", type=float, help="min seconds between firings"
    )
    rw.add_argument(
        "--safety-factor", type=float, help="migration cost inflation in the remap rule"
    )
    rw.add_argument("--ticks", dest="max_ticks", type=int, help="stop the watch after N ticks")
    rw.add_argument(
        "--wait",
        action="store_true",
        help="block until the watch records a decision (exit 1 if it never does)",
    )
    rw.set_defaults(func=cmd_remap)

    rp = rsub.add_parser("wait", help="block until a watch records a decision")
    add_endpoint_args(rp)
    rp.add_argument("watch_id", help="watch id printed by `repro remap watch`")
    rp.set_defaults(func=cmd_remap)

    rd = rsub.add_parser("decisions", help="list recorded remap decisions")
    add_endpoint_args(rd)
    rd.add_argument("--limit", type=int, default=None, help="newest N decisions only")
    rd.add_argument("--json", action="store_true", help="print raw decision documents")
    rd.set_defaults(func=cmd_remap)

    ri = rsub.add_parser("inject", help="inject background load (drift) into the daemon's cluster")
    add_endpoint_args(ri)
    ri.add_argument(
        "load",
        help="comma-separated node=cpu[:nic] assignments, e.g. 'grove-n00=1.5,grove-n01=1.5'",
    )
    ri.set_defaults(func=cmd_remap)
    return parser


#: The commands that talk to a running daemon or router.
_CLIENT_COMMANDS = (cmd_submit, cmd_jobs, cmd_remap, cmd_metrics)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.func not in _CLIENT_COMMANDS:
        return args.func(args)
    try:
        return args.func(args)
    except BackpressureError as exc:
        raise SystemExit(
            f"error: daemon queue is full; retry in {exc.retry_after_s:.0f}s"
        ) from None
    except (ServerError, JobFailed, TimeoutError) as exc:  # TimeoutError: a wait's deadline
        raise SystemExit(f"error: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"error: cannot reach daemon at {args.host}:{args.port}: {exc}") from None


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())

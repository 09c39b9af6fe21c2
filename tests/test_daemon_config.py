"""The daemon's configuration is the field table of ``repro.server.config``.

``DAEMON_FIELDS`` is the one declaration of what a daemon is configured
with; this file holds everything else to it: the flags of ``repro serve``
and ``repro fleet``, the argv the benchmark stack and the fleet
supervisor build, the daemon's keyword checks, the flag table of
docs/SERVICE.md, and the rule that each default is written once.
"""

import ast
import math
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.fleet import FleetSupervisor
from repro.server.config import DAEMON_FIELDS, FSYNC_POLICIES, daemon_config
from repro.server.daemon import CbesDaemon

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The option strings of both subcommands before the table, minus
#: ``serve --timeout`` (parsed, never read, removed).
SERVE_OPTIONS = [
    "-h", "--help", "--host", "--port", "--workers", "--queue-limit", "--job-ttl",
    "--refresh-interval", "--no-monitor", "--forecaster", "--log-level", "--data-dir",
    "--fsync", "--replica-id", "--max-body-bytes",
]
FLEET_OPTIONS = [
    "-h", "--help", "--host", "--port", "--replicas", "--backends", "--workers",
    "--queue-limit", "--data-root", "--fsync", "--log-level",
]


def subcommand(name: str):
    return build_parser()._subparsers._group_actions[0].choices[name]


def parsed_config(argv: list[str]) -> dict:
    """The configuration document a ``repro`` argv gives its daemon."""
    args = build_parser().parse_args(argv)
    return daemon_config(
        **{name: getattr(args, name) for name in DAEMON_FIELDS if hasattr(args, name)}
    )


class TestFlags:
    @pytest.mark.parametrize(
        "command, options", [("serve", SERVE_OPTIONS), ("fleet", FLEET_OPTIONS)]
    )
    def test_option_strings_are_the_parents(self, command, options):
        actions = subcommand(command)._actions
        assert sorted(s for action in actions for s in action.option_strings) == sorted(options)

    @pytest.mark.parametrize("command", ["serve", "fleet"])
    def test_every_setting_flag_sets_its_row(self, command):
        flags = {row.flag: name for name, row in DAEMON_FIELDS.items()}
        settings = [a for a in subcommand(command)._actions if a.option_strings[0] in flags]
        assert settings
        for action in settings:
            assert action.dest == flags[action.option_strings[0]]
            assert action.default == DAEMON_FIELDS[action.dest].default

    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_the_benchmark_replica_argv(self, fsync):
        argv = [
            "--db", "D", "--cluster", "centurion", "serve", "--port", "0", "--no-monitor",
            "--refresh-interval", "0", "--workers", "2", "--queue-limit", "256",
            "--log-level", "warning", "--data-dir", "DATA", "--fsync", fsync,
        ]
        # The parent spelled "--refresh-interval 0" as refresh_interval_s=None.
        assert parsed_config(argv) == {
            "workers": 2,
            "queue_limit": 256,
            "job_ttl_s": 600.0,
            "refresh_interval_s": 0.0,
            "keepalive_max_requests": 100,
            "keepalive_timeout_s": 30.0,
            "fsync": fsync,
            "max_body_bytes": 8 * 1024 * 1024,
            "data_dir": "DATA",
            "replica_id": "",
        }
        args = build_parser().parse_args(argv)
        assert (args.port, args.monitor, args.log_level) == (0, False, "warning")

    def test_the_benchmark_router_argv(self):
        args = build_parser().parse_args(
            ["fleet", "--port", "0", "--backends", "127.0.0.1:1", "--log-level", "warning"]
        )
        assert (args.port, args.backends, args.replicas) == (0, "127.0.0.1:1", 0)
        assert (args.workers, args.queue_limit, args.fsync) == (2, 16, "interval")


class TestSupervisorDocument:
    @pytest.mark.parametrize(
        "options",
        [{}, {"workers": 1, "queue_limit": 64, "fsync": "never", "data_root": "/srv/cbes"}],
        ids=["default", "non-default"],
    )
    def test_replica_argv_parses_back_to_the_document(self, options):
        supervisor = FleetSupervisor(replicas=2, db="DB", seed=5, **options)
        for index in range(2):
            argv = supervisor._command(index)
            assert argv[1:3] == ["-m", "repro"]
            assert parsed_config(argv[3:]) == supervisor.replica_config(index)

    def test_only_non_default_settings_are_forwarded(self):
        argv = FleetSupervisor(replicas=1, queue_limit=64)._command(0)
        serve = argv[argv.index("serve") :]
        assert [a for a in serve if a.startswith("--")] == [
            "--host", "--port", "--log-level", "--queue-limit", "--replica-id",
        ]

    def test_a_bad_setting_is_refused_before_anything_spawns(self):
        with pytest.raises(ValueError, match="workers"):
            FleetSupervisor(replicas=2, workers=0)
        for name in ("job_ttl_s", "keepalive_max_requests", "replica_id", "data_dir"):
            with pytest.raises(TypeError):  # `repro fleet` forwards no such flag
                FleetSupervisor(replicas=2, **{name: DAEMON_FIELDS[name].default})


class TestDaemonKeywords:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("workers", 0),
            ("workers", 1.5),
            ("queue_limit", 0),
            ("job_ttl_s", -1.0),
            ("job_ttl_s", math.nan),
            ("job_ttl_s", math.inf),
            ("refresh_interval_s", -3.0),
            ("refresh_interval_s", None),
            ("keepalive_timeout_s", 0.0),
            ("max_body_bytes", 0),
            ("fsync", "sometimes"),
            ("data_dir", ""),
        ],
    )
    def test_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            CbesDaemon(None, **{name: value})

    @pytest.mark.parametrize("name", ["max_traces", "drain_timeout_s", "frobnicate"])
    def test_unknown_keyword(self, name):
        with pytest.raises(TypeError, match=name):
            CbesDaemon(None, **{name: 1})

    def test_document_is_normalized(self):
        config = daemon_config(data_dir=Path("/srv/cbes"), job_ttl_s=5, refresh_interval_s=0)
        assert config["data_dir"] == "/srv/cbes"
        assert config["job_ttl_s"] == 5.0 and isinstance(config["job_ttl_s"], float)
        assert config["refresh_interval_s"] == 0.0
        assert list(config) == list(DAEMON_FIELDS)


def section_rows(page: str, heading: str) -> dict[str, str]:
    """flag -> default cell of the flag table under *heading* in docs/*page*."""
    text = (ROOT / "docs" / page).read_text(encoding="utf-8")
    rows = {}
    for line in text[text.index(heading) :].splitlines()[2:]:
        if not line.startswith("|"):
            if rows:
                break
            continue
        flag, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows[flag.strip("`")] = default
    return rows


class TestDocs:
    def test_service_flag_table(self):
        rows = section_rows("SERVICE.md", "`repro serve` options:")
        assert "--timeout" not in rows
        for row in DAEMON_FIELDS.values():
            if row.flag is None:
                continue
            default = row.default
            expected = {None: "off", "": "—"}.get(default, str(default).removesuffix(".0"))
            assert rows[row.flag].split()[0].strip("`") == expected, row.flag


# -- each default is written once -----------------------------------------
#: Parameters of the inner layers named otherwise than their row.
ALIASES = {"job_ttl_s": {"ttl_s"}}
#: The daemon and the layers it configures (``workers`` elsewhere is a search's).
LAYERS = {"server", "persist", "fleet", "cli.py"}


def literal(node: ast.AST):
    """The value of a literal expression (a constant, or ints under + and *), else a sentinel."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Add)):
        left, right = literal(node.left), literal(node.right)
        if isinstance(left, int) and isinstance(right, int):
            return left * right if isinstance(node.op, ast.Mult) else left + right
    return NOT_LITERAL


NOT_LITERAL = object()


def source_trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text(encoding="utf-8"))


def default_sites() -> dict[str, set[tuple[str, object]]]:
    """row -> the ``(file:line, value)`` where src/repro writes its default as a literal.

    A site is a table row's default, a parameter of the daemon's layers
    named like the row with a default, or a ``default=`` for the row's
    flag; a default that is a module constant counts the constant's
    assignment instead.
    """
    constants = {}
    for path, tree in source_trees():
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and literal(node.value) is not NOT_LITERAL:
                    constants[target.id] = (f"{path}:{node.lineno}", literal(node.value))
    sites: dict[str, set] = {name: set() for name in DAEMON_FIELDS}
    flags = {row.flag: name for name, row in DAEMON_FIELDS.items() if row.flag}

    def record(name: str, node: ast.AST, where: str) -> None:
        value = literal(node)
        if value is not NOT_LITERAL:
            sites[name].add((where, value))
        elif isinstance(node, ast.Name) and node.id in constants:
            sites[name].add(constants[node.id])

    for path, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):  # the table
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value in DAEMON_FIELDS
                        and isinstance(value, ast.Call)
                        and getattr(value.func, "id", "") == "Setting"
                    ):
                        record(key.value, value.args[0], f"{path}:{value.lineno}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.parts[0] not in LAYERS:
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                for arg, default in pairs:
                    for name in DAEMON_FIELDS:
                        if arg.arg in {name} | ALIASES.get(name, set()):
                            record(name, default, f"{path}:{default.lineno}")
            elif isinstance(node, ast.Call) and node.args:
                first = literal(node.args[0])
                if first in flags:
                    for keyword in node.keywords:
                        if keyword.arg == "default":
                            record(flags[first], keyword.value, f"{path}:{node.lineno}")
    return sites


class TestWrittenOnce:
    @pytest.fixture(scope="class")
    def sites(self):
        return default_sites()

    @pytest.mark.parametrize("name", list(DAEMON_FIELDS))
    def test_each_default_is_one_literal(self, sites, name):
        assert len(sites[name]) == 1, sites[name]
        ((_where, value),) = sites[name]
        assert value == DAEMON_FIELDS[name].default

    def test_the_fsync_policies_are_one_list(self):
        found = [
            f"{path}:{node.lineno}"
            for path, tree in source_trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Tuple, ast.List))
            and {getattr(e, "value", None) for e in node.elts} == set(FSYNC_POLICIES)
        ]
        assert len(found) == 1, found

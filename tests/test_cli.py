"""Tests for the command-line front end."""

import pytest

from repro.cli import build_parser, main, make_app
from repro.workloads import HPL, LU, Aztec, Towhee


class TestMakeApp:
    def test_npb_specs(self):
        assert isinstance(make_app("lu.A"), LU)
        assert make_app("lu.B").npb_class == "B"
        assert make_app("LU.A").name == "lu.A"

    def test_default_class(self):
        assert make_app("lu").npb_class == "A"

    def test_parameterized_specs(self):
        assert isinstance(make_app("hpl.5000"), HPL)
        assert make_app("hpl.5000").n == 5000
        assert make_app("smg2000.12").problem_size == 12
        assert isinstance(make_app("aztec.500"), Aztec)
        assert isinstance(make_app("towhee"), Towhee)

    def test_unknown_app(self):
        with pytest.raises(SystemExit):
            make_app("doom")

    def test_bad_argument(self):
        with pytest.raises(SystemExit):
            make_app("hpl.huge")
        with pytest.raises(SystemExit):
            make_app("lu.Z")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["inspect"])
        assert args.cluster == "orange-grove"
        assert args.db == ".cbes-db"

    def test_unknown_cluster_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--cluster", "mars", "inspect"])


class TestCommands:
    """End-to-end CLI flow against a temporary database."""

    @pytest.fixture(scope="class")
    def db_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("cbes-db"))

    def run(self, db_dir, *argv):
        return main(["--db", db_dir, *argv])

    def test_schedule_before_calibrate_fails(self, db_dir, capsys):
        with pytest.raises(SystemExit, match="calibrate"):
            self.run(db_dir, "schedule", "lu.A")

    def test_calibrate(self, db_dir, capsys):
        assert self.run(db_dir, "calibrate") == 0
        out = capsys.readouterr().out
        assert "378 pairs" in out
        assert "27 rounds" in out

    def test_profile(self, db_dir, capsys):
        assert self.run(db_dir, "profile", "lu.S", "--nprocs", "4") == 0
        out = capsys.readouterr().out
        assert "lu.S" in out

    def test_schedule(self, db_dir, capsys):
        assert self.run(db_dir, "schedule", "lu.S", "--arch", "alpha-533") == 0
        out = capsys.readouterr().out
        assert "predicted execution time" in out
        assert out.count("rank") == 4

    def test_schedule_unknown_profile(self, db_dir):
        with pytest.raises(SystemExit, match="no stored profile"):
            self.run(db_dir, "schedule", "mg.A")

    def test_predict(self, db_dir, capsys):
        assert self.run(
            db_dir, "predict", "lu.S", "og-a00,og-a01,og-a02,og-a03"
        ) == 0
        out = capsys.readouterr().out
        assert "critical rank" in out

    def test_predict_parses_nodes_as_submit_does(self, db_dir, capsys):
        """A trailing comma or padding is dropped, as for ``submit --nodes``."""
        assert self.run(db_dir, "predict", "lu.S", "og-a00,og-a01,og-a02,og-a03") == 0
        plain = capsys.readouterr().out
        assert self.run(db_dir, "predict", "lu.S", " og-a00, og-a01,og-a02 ,og-a03,") == 0
        assert capsys.readouterr().out == plain
        parse = build_parser().parse_args
        submit = parse(["submit", "lu.S", "--nodes", "og-a00,og-a01,"])
        assert parse(["predict", "lu.S", "og-a00,og-a01,"]).nodes == submit.nodes

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ("og-a00,og-a01,og-a02,nowhere", "error: mapping uses unknown node 'nowhere'"),
            ("og-a00,og-a01,og-a02", "error: mapping places 3 processes but profile has 4"),
        ],
        ids=["unknown-node", "wrong-rank-count"],
    )
    def test_predict_refuses_a_bad_mapping_without_a_traceback(self, db_dir, nodes, message):
        with pytest.raises(SystemExit) as exit_info:
            self.run(db_dir, "predict", "lu.S", nodes)
        assert exit_info.value.code == message

    #: A local command's bad argument, and the one line it exits with.
    REFUSED = {
        "profile lu.S --nprocs 0": "error: lu.S does not support nprocs=0",
        "profile lu.S --nprocs -3": "error: lu.S does not support nprocs=-3",
        "profile lu.S --nprocs 200": (
            "error: cannot place 200 processes one per node on the 28 nodes of 'orange-grove'"
        ),
        "calibrate --noise -1": "error: noise must be a finite number >= 0, got -1.0",
        "calibrate --noise nan": "error: noise must be a finite number >= 0, got nan",
        "schedule lu.S --arch nope": (
            "error: no nodes of architecture 'nope'; valid: alpha-533, pii-400, sparc-500"
        ),
        "schedule lu.S --scheduler ga --islands 0": "error: islands must be >= 1",
        "schedule lu.S --islands 0": "error: --islands requires --scheduler ga",
        "schedule lu.S --time-budget nan": "error: time_budget must be > 0 seconds, got nan",
    }

    @pytest.mark.parametrize("argv, message", REFUSED.items(), ids=list(REFUSED))
    def test_local_commands_refuse_bad_arguments_without_a_traceback(
        self, db_dir, argv, message
    ):
        with pytest.raises(SystemExit) as exit_info:
            self.run(db_dir, *argv.split())
        assert exit_info.value.code == message

    def test_inspect(self, db_dir, capsys):
        assert self.run(db_dir, "inspect") == 0
        out = capsys.readouterr().out
        assert "lu.S" in out
        assert "system profile stored: True" in out

    def test_rs_scheduler_option(self, db_dir, capsys):
        assert self.run(db_dir, "schedule", "lu.S", "--scheduler", "rs") == 0
        assert "RS" in capsys.readouterr().out


class TestServerParser:
    """Parsing for the daemon-facing subcommands (serve / submit / jobs)."""

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 2
        assert args.queue_limit == 16
        assert args.job_ttl_s == 600.0
        assert args.refresh_interval_s == 10.0
        assert args.monitor is True
        assert args.log_level == "info"

    def test_serve_no_monitor(self):
        args = build_parser().parse_args(["serve", "--no-monitor", "--port", "0"])
        assert args.monitor is False
        assert args.port == 0

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "lu.S"])
        assert args.kind == "schedule"
        assert args.scheduler is None  # not sent: the server states the default
        assert args.no_wait is False

    def test_submit_predict_requires_known_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "lu.S", "--kind", "juggle"])

    def test_jobs_optional_id(self):
        assert build_parser().parse_args(["jobs"]).job_id is None
        assert build_parser().parse_args(["jobs", "j000001"]).job_id == "j000001"

    def test_submit_unreachable_daemon_exits(self):
        with pytest.raises(SystemExit):
            main(["submit", "lu.S", "--port", "1", "--timeout", "1"])

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--log-level", "shouty"])


class TestSettingsAreUsageErrors:
    """A refused daemon setting exits 2 at parse time, naming the flag."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--workers", "0"],
            ["serve", "--queue-limit", "0"],
            ["serve", "--job-ttl", "-1"],
            ["serve", "--job-ttl", "nan"],
            ["serve", "--job-ttl", "inf"],
            ["serve", "--refresh-interval", "-3"],
            ["serve", "--max-body-bytes", "0"],
            ["serve", "--fsync", "sometimes"],
            ["serve", "--data-dir", ""],
            ["fleet", "--replicas", "2", "--workers", "0"],
            ["fleet", "--replicas", "2", "--queue-limit", "-1"],
        ],
        ids=" ".join,
    )
    def test_exit_2_without_a_traceback(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: argument {argv[-2]}: " in err
        assert "Traceback" not in err

    def test_fleet_refuses_before_spawning_a_replica(self, monkeypatch, capsys):
        import repro.fleet.supervisor

        spawned = []
        monkeypatch.setattr(
            repro.fleet.supervisor.subprocess, "Popen", lambda *a, **k: spawned.append(a)
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", "--replicas", "2", "--workers", "0"])
        assert exit_info.value.code == 2
        assert spawned == []

    def test_serve_has_no_timeout(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--timeout", "5"])
        assert exit_info.value.code == 2
        assert build_parser().parse_args(["submit", "lu.S", "--timeout", "5"]).timeout == 5.0


class TestTimeoutFlag:
    """``--timeout`` is a finite number of seconds > 0, checked at parse time."""

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "soon"])
    @pytest.mark.parametrize(
        "argv",
        [["submit", "lu.S"], ["jobs"], ["metrics"], ["remap", "wait", "w1"],
         ["remap", "decisions"], ["remap", "inject", "og-a00=1"]],
        ids=" ".join,
    )
    def test_exit_2_without_a_traceback(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--port", "1", "--timeout", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --timeout: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_subprocess_prints_one_error_line(self, value, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "lu.S", "--port", "1", "--timeout", value],
            cwd=tmp_path,
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert errors == [
            f"repro submit: error: argument --timeout: "
            f"timeout must be a finite positive number, got {float(value)!r}"
        ]
        assert "Traceback" not in proc.stderr

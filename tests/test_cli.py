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
        assert args.job_ttl == 600.0
        assert args.refresh_interval == 10.0
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

"""Tests for the profile database."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.cli import main
from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.profiling import ProfileDatabase
from repro.workloads import SyntheticBenchmark


@pytest.fixture
def service():
    svc = CBES(single_switch("mini", 6))
    svc.calibrate(seed=2)
    return svc


@pytest.fixture
def app():
    return SyntheticBenchmark(comm_fraction=0.3, duration_s=2.0, steps=4)


class TestProfileDatabase:
    def test_latency_model_roundtrip(self, tmp_path, service):
        db = ProfileDatabase(tmp_path)
        model = service.cluster.latency_model
        db.save_latency_model("mini", model)
        loaded = db.load_latency_model("mini")
        for src, dst in model.pairs():
            assert loaded.no_load(src, dst, 4096) == model.no_load(src, dst, 4096)

    def test_missing_system_profile(self, tmp_path):
        with pytest.raises(KeyError):
            ProfileDatabase(tmp_path).load_latency_model("ghost")

    def test_profile_roundtrip(self, tmp_path, service, app):
        db = ProfileDatabase(tmp_path)
        profile = service.profile_application(app, 3, seed=1)
        db.save_profile(profile)
        loaded = db.load_profile(app.name)
        assert loaded.to_dict() == profile.to_dict()

    def test_applications_listing(self, tmp_path, service, app):
        db = ProfileDatabase(tmp_path)
        assert db.applications() == []
        db.save_profile(service.profile_application(app, 2, seed=1))
        assert db.applications() == [app.name]

    def test_delete_profile(self, tmp_path, service, app):
        db = ProfileDatabase(tmp_path)
        db.save_profile(service.profile_application(app, 2, seed=1))
        assert db.delete_profile(app.name)
        assert not db.delete_profile(app.name)
        assert db.applications() == []

    def test_foreign_files_ignored(self, tmp_path):
        db = ProfileDatabase(tmp_path)
        (tmp_path / "applications" / "junk.json").write_text("not json")
        (tmp_path / "applications" / "other.json").write_text(json.dumps({"x": 1}))
        assert db.applications() == []

    def test_snapshot_and_attach_service(self, tmp_path, service, app):
        db = ProfileDatabase(tmp_path)
        service.profile_application(app, 3, seed=1)
        assert db.snapshot_service(service) == 1
        # A brand new service on the same hardware reloads everything.
        fresh = CBES(single_switch("mini", 6))
        assert not fresh.cluster.is_calibrated
        loaded = db.attach(fresh)
        assert loaded == 1
        assert fresh.cluster.is_calibrated
        assert app.name in fresh.profiled_applications
        # ...and can evaluate immediately, without recalibration.
        mapping = TaskMapping(fresh.cluster.node_ids()[:3])
        assert fresh.evaluator(app.name).execution_time(mapping) > 0

    def test_attach_rejects_wrong_cluster(self, tmp_path, service):
        db = ProfileDatabase(tmp_path)
        db.snapshot_service(service)
        other = CBES(single_switch("mini", 8))  # two extra nodes
        with pytest.raises(ValueError, match="lacks nodes"):
            db.attach(other)

    def test_slug_sanitizes_names(self, tmp_path, service, app):
        db = ProfileDatabase(tmp_path)
        profile = service.profile_application(app, 2, seed=1)
        object.__setattr__  # (profiles are plain dataclasses; rename via dict)
        data = profile.to_dict()
        data["app_name"] = "weird/../name"
        from repro.profiling import ApplicationProfile

        weird = ApplicationProfile.from_dict(data)
        path = db.save_profile(weird)
        assert path.parent == tmp_path / "applications"
        assert "/" not in path.name.replace(".json", "")


def truncate(path, fraction=0.5):
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * fraction)])


class TestTornFiles:
    """A stored file that does not parse stops its reader with the file's
    path; a save that fails leaves the previous file whole."""

    def test_torn_system_profile_names_its_path(self, tmp_path, service):
        db = ProfileDatabase(tmp_path)
        path = db.save_latency_model("mini", service.cluster.latency_model)
        truncate(path)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            db.load_latency_model("mini")
        with pytest.raises(ValueError, match="unreadable database file"):
            db.attach(CBES(single_switch("mini", 6)))

    def test_torn_profile_is_not_a_foreign_file(self, tmp_path, service, app):
        db = ProfileDatabase(tmp_path)
        path = db.save_profile(service.profile_application(app, 3, seed=1))
        truncate(path)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            db.applications()
        with pytest.raises(ValueError, match=re.escape(str(path))):
            db.load_profile(app.name)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            db.attach(service)

    def test_attach_parses_each_profile_once(self, tmp_path, service, app):
        db = ProfileDatabase(tmp_path)
        db.save_profile(service.profile_application(app, 3, seed=1))
        fresh = CBES(single_switch("mini", 6))
        with mock.patch("repro.profiling.database.json.loads", wraps=json.loads) as loads:
            assert db.attach(fresh) == 1
        assert loads.call_count == 1
        assert fresh.profile(app.name).to_dict() == service.profile(app.name).to_dict()

    def test_a_failed_save_keeps_the_previous_file(self, tmp_path, service, app):
        db = ProfileDatabase(tmp_path)
        system = db.save_latency_model("mini", service.cluster.latency_model)
        profile = service.profile_application(app, 3, seed=1)
        stored = db.save_profile(profile)
        before = {path: path.read_bytes() for path in (system, stored)}
        other = CBES(single_switch("mini", 6))
        other.calibrate(seed=9)
        with mock.patch("os.replace", side_effect=OSError("disk full")):
            with pytest.raises(OSError, match="disk full"):
                db.save_latency_model("mini", other.cluster.latency_model)
            with pytest.raises(OSError, match="disk full"):
                db.save_profile(service.profile_application(app, 2, seed=1))
        assert {path: path.read_bytes() for path in before} == before
        leftovers = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert leftovers == sorted(path.name for path in before)

    @pytest.fixture(scope="class")
    def pristine_db(self, tmp_path_factory):
        """Orange Grove calibrated and lu.A profiled on 4 ranks, via the CLI."""
        db = str(tmp_path_factory.mktemp("pristine-db"))
        assert main(["--db", db, "calibrate"]) == 0
        assert main(["--db", db, "profile", "lu.A", "--nprocs", "4"]) == 0
        return Path(db)

    @pytest.mark.parametrize("command", [["profile", "lu.A", "--nprocs", "4"], ["serve"]])
    @pytest.mark.parametrize("torn", ["system/orange-grove.json", "applications/lu.A.json"])
    def test_the_cli_reports_one_error_line(self, tmp_path, pristine_db, command, torn):
        db = tmp_path / "db"
        shutil.copytree(pristine_db, db)
        truncate(db / torn)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--db", str(db), *command],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: unreadable database file ")
        assert proc.stderr.count("\n") == 1
        assert str(db / torn) in proc.stderr


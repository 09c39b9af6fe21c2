"""The cold-start contract: a process imports and derives only what it uses.

* **Imports** — the daemon, the fleet router and the CLI import neither
  numpy nor networkx; numpy arrives with the first batched evaluation,
  which no quote, SA search or remap watch makes.
* **Exports** — every package keeps its public names: each one in an
  ``__all__`` resolves and is listed by ``dir()``, though the package
  ``__init__`` imports no submodule until a name is asked for.
* **Derivations** — calibration derives each host pair's analytic
  latency once, and the ground-truth simulator derives a pair the first
  time a run sends over it, never at construction.
* **Bytes** — none of that moves an answer: ``repro calibrate`` and
  ``repro profile`` write files whose digests are pinned below, and
  they stay the same under a compensated builtin ``sum`` (CPython
  >= 3.12 compensates float sums).
"""

from __future__ import annotations

import builtins
import hashlib
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.cli import main
from repro.cluster import centurion
from repro.cluster.latency import LatencyModel
from repro.simulate import ClusterSimulator

SRC = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = (
    "repro",
    "repro.cluster",
    "repro.core",
    "repro.experiments",
    "repro.fleet",
    "repro.monitoring",
    "repro.persist",
    "repro.profiling",
    "repro.remap",
    "repro.schedulers",
    "repro.search",
    "repro.server",
    "repro.simulate",
    "repro.telemetry",
    "repro.workloads",
)

#: sha256 of the files ``repro --cluster <cluster> <command>`` writes
#: (default seed and noise).  Any drift in the calibration or profiling
#: arithmetic — a path, a derivation, an RNG draw — changes them.
DIGESTS = {
    ("centurion", "calibrate"): (
        "system/centurion.json",
        "ae17bb458282e5bb384853c4e842731ebd68c62ca1e136e8c4615f5231c229ae",
    ),
    ("orange-grove", "calibrate"): (
        "system/orange-grove.json",
        "02914008d1eb1bd5d1b1090b9b837c74b973d7d29e6b7e7d8845a4a376591f9a",
    ),
    ("centurion", "profile", "cg.A", "--nprocs", "8"): (
        "applications/cg.A.json",
        "96fbce9c6b21742e4f55d5aab26da22b582aab9bf7cae76930107c9fda7256a4",
    ),
    ("centurion", "profile", "lu.A", "--nprocs", "32"): (
        "applications/lu.A.json",
        "e333661cdc2e4aa181156ee1450a30d9977c58d4ca6db8df166cfff12007c166",
    ),
}


def fresh_python(code: str) -> str:
    """Run *code* in a new interpreter (default backend); its stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


#: Every module of the package, dotted, but ``repro.__main__``.
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in Path(SRC, "repro").rglob("*.py")
    if path.name != "__main__.py"
)


class TestImports:
    @pytest.mark.parametrize("module", ["repro.fleet.router", "repro.server.daemon", "repro.cli"])
    def test_service_entry_points_load_no_numpy_or_networkx(self, module):
        code = f"import sys, {module}; print(sorted({{'numpy', 'networkx'}} & set(sys.modules)))"
        assert fresh_python(code) == "[]"

    def test_the_client_daemon_and_router_load_no_http_client(self):
        """The client speaks the service's own codec (``repro.server.protocol``)."""
        code = (
            "import sys, repro.server.client, repro.server.daemon, repro.fleet.router; "
            "print('http.client' in sys.modules)"
        )
        assert fresh_python(code) == "False"

    @pytest.mark.parametrize("module", MODULES)
    def test_every_module_imports_alone(self, module):
        """No import cycle hides behind the order a package imports its modules in."""
        assert fresh_python(f"import {module}; print('ok')") == "ok"

    def test_the_fleet_command_loads_no_daemon_journal_workload_or_simulator(self):
        code = """
import sys
from repro.cli import build_parser
args = build_parser().parse_args(["fleet", "--backends", "127.0.0.1:1"])
from repro.fleet import FleetRouter, FleetSupervisor
FleetRouter(["127.0.0.1:1"])
heavy = ("repro.server.daemon", "repro.persist", "repro.workloads", "repro.simulate.engine")
print(sorted(m for m in sys.modules if m.startswith(heavy)))
"""
        assert fresh_python(code) == "[]"

    @pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
    def test_numpy_arrives_with_the_first_batch(self):
        code = """
import sys
from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.workloads import SyntheticBenchmark

service = CBES(single_switch("mini", 4))
service.calibrate(seed=2)
app = SyntheticBenchmark(comm_fraction=0.3, duration_s=2.0, steps=4)
service.profile_application(app, 4, seed=1)
context = service.evaluator(app.name).fast_context()
mapping = TaskMapping(service.cluster.node_ids())
before = "numpy" in sys.modules
context.execution_time(mapping)
scalar = "numpy" in sys.modules
context.evaluate_many([mapping])
print(before, scalar, "numpy" in sys.modules)
"""
        assert fresh_python(code) == "False False True"

    @pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
    def test_a_daemon_serving_quotes_loads_no_numpy(self):
        """Quotes are priced by the scalar kernel: the batch kernel's numpy
        would cost a quote-only replica ~15 MB of resident memory."""
        code = """
import sys
from repro.cluster import single_switch
from repro.core import CBES
from repro.server import DaemonThread
from repro.workloads import SyntheticBenchmark

service = CBES(single_switch("mini", 6))
service.calibrate(seed=2)
app = SyntheticBenchmark(comm_fraction=0.3, duration_s=2.0, steps=4)
service.profile_application(app, 3, seed=1)
ids = service.cluster.node_ids()
with DaemonThread(service, workers=2, queue_limit=16) as srv:
    client = srv.client()
    client.predict(app.name, ids[:3])
    client.wait(client.submit("compare", app=app.name, mappings=[ids[:3], ids[3:]])["id"])
    batch = [{"kind": "predict", "app": app.name, "nodes": ids[i:i + 3]} for i in range(4)]
    batch.append({"kind": "compare", "app": app.name, "mappings": [ids[:3], [ids[0]] * 3]})
    done = client.wait_many([job["id"] for job in client.submit_batch(batch)])
print(len(done), "numpy" in sys.modules)
"""
        assert fresh_python(code) == "5 False"

    @pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy not installed")
    def test_a_replica_serving_sa_searches_and_watches_loads_no_numpy(self):
        """CS / NCS seed scans and the remapper's stay / move pair are priced
        one mapping at a time on the scalar kernel: numpy's ~13 MB would buy
        a replica well under a millisecond a job."""
        code = """
import sys
from repro.cluster import single_switch
from repro.core import CBES
from repro.server import DaemonThread
from repro.workloads import SyntheticBenchmark

service = CBES(single_switch("mini", 6))
service.calibrate(seed=2)
app = SyntheticBenchmark(comm_fraction=0.3, duration_s=2.0, steps=4)
service.profile_application(app, 3, seed=1)
ids = service.cluster.node_ids()
with DaemonThread(service, workers=2, queue_limit=16) as srv:
    client = srv.client()
    for scheduler in ("cs", "ncs"):
        client.schedule(app.name, scheduler=scheduler, seed=3)
    client.predict(app.name, ids[:3])
    watch = client.remap_watch(app.name, ids[:3], interval_s=0.02, max_ticks=200, seed=5)
    client.inject_load([{"node": node, "cpu_load": 1.5} for node in ids[:3]])
    decision = client.wait_decision(watch["id"], timeout_s=60.0)
print(decision["watch_id"] == watch["id"], "numpy" in sys.modules)
"""
        assert fresh_python(code) == "True False"


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            getattr(module, name)
            assert name in listed, f"{package}.{name} missing from dir()"

    def test_unknown_names_fall_through_to_submodules(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018
        from repro import telemetry
        from repro.core import fast_eval

        assert telemetry.__name__ == "repro.telemetry"
        assert fast_eval.__name__ == "repro.core.fast_eval"

    def test_a_resolved_name_is_cached_in_the_package(self):
        from repro.core.mapping import TaskMapping

        core = importlib.import_module("repro.core")
        assert core.TaskMapping is TaskMapping
        assert vars(core)["TaskMapping"] is TaskMapping

    def test_a_bare_package_import_loads_no_submodule(self):
        code = "import sys, repro.core; print(sorted(m for m in sys.modules if m[:6] == 'repro.'))"
        assert fresh_python(code) == "['repro._rng', 'repro._util', 'repro.core']"


def counting_derivations():
    """Patch ``LatencyModel.analytic_components`` to record its pairs."""
    pairs: list[tuple[str, str]] = []
    derive = LatencyModel.analytic_components

    def counting(fabric, nodes, src, dst):
        pairs.append((src, dst))
        return derive(fabric, nodes, src, dst)

    return pairs, mock.patch.object(LatencyModel, "analytic_components", staticmethod(counting))


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Every command of :data:`DIGESTS` run in order into one database,
    with the pairs each one derived."""
    db = tmp_path_factory.mktemp("cold-start-db")
    derived = {}
    for argv in DIGESTS:
        pairs, patch = counting_derivations()
        with patch:
            assert main(["--db", str(db), "--cluster", *argv]) == 0
        derived[argv] = pairs
    return db, derived


class TestDerivations:
    def test_calibration_derives_each_pair_once(self, cli_runs):
        _, derived = cli_runs
        pairs = derived[("centurion", "calibrate")]
        assert len(pairs) == 128 * 127 // 2
        assert len(set(pairs)) == len(pairs)

    def test_profiling_derives_only_the_pairs_it_sends_over(self, cli_runs):
        _, derived = cli_runs
        pairs = derived[("centurion", "profile", "lu.A", "--nprocs", "32")]
        assert 0 < len(pairs) <= 32 * 31
        assert len(set(pairs)) == len(pairs)

    def test_the_simulator_derives_no_pair_at_construction(self):
        pairs, patch = counting_derivations()
        with patch:
            ClusterSimulator(centurion())
        assert pairs == []


class TestBytes:
    @pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
    def test_database_files_are_byte_identical(self, cli_runs, argv):
        db, _ = cli_runs
        relpath, digest = DIGESTS[argv]
        assert hashlib.sha256((db / relpath).read_bytes()).hexdigest() == digest


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum``, compensated for floats as CPython >= 3.12 does it."""
    items = list(iterable)
    if any(type(x) is float for x in items) and all(type(x) in (int, float) for x in items):
        return start + math.fsum(items)
    return BUILTIN_SUM(items, start)


BUILTIN_SUM = builtins.sum


class TestBytesAcrossPythons:
    def test_a_compensated_builtin_sum_moves_no_byte(self, tmp_path):
        """The files do not depend on how the interpreter sums floats."""
        with mock.patch("builtins.sum", compensated_sum):
            assert sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # a left fold says 0.0
            for argv in DIGESTS:
                assert main(["--db", str(tmp_path), "--cluster", *argv]) == 0
        for relpath, digest in DIGESTS.values():
            assert hashlib.sha256((tmp_path / relpath).read_bytes()).hexdigest() == digest

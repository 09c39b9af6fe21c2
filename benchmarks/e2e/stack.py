"""Process hygiene: boot the real CBES stack as subprocesses, tear it down.

Everything the benchmark runs is started through the public CLI
(``python -m repro calibrate|profile|serve|fleet`` on the ``centurion``
cluster), each child in its own session so that everything it spawns
(pool workers included) shares one process group the teardown can
account for.  Ports are ephemeral and parsed from the banners; all files
live in a temp dir under ``benchmarks/e2e/out`` (the benchmark may write
only inside its checkout).
"""

from __future__ import annotations

import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = E2E_DIR / "out"

CLUSTER = "centurion"
#: (application spec, ranks) profiled into every benchmark database.
APPS = (("cg.A", 8), ("lu.A", 32))
#: Replica flags that make answers deterministic: oracle snapshots, no
#: refresh, and a queue deep enough that no workload is refused.
REPLICA_FLAGS = (
    "--no-monitor", "--refresh-interval", "0", "--workers", "2", "--queue-limit", "256",
    "--log-level", "warning",
)

_BANNER = re.compile(r"on http://([0-9.]+):(\d+)")


def child_env() -> dict[str, str]:
    """The environment of every child: ``REPRO_*`` cleared, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def clear_repro_env() -> None:
    """Drop ``REPRO_*`` from this process too (the oracle and probes run here)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def make_workdir(prefix: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=OUT_DIR))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def repro_cli(db: Path, *args: str) -> float:
    """Run one blocking ``python -m repro`` command; returns its wall seconds."""
    cmd = [sys.executable, "-m", "repro", "--db", str(db), "--cluster", CLUSTER, *args]
    started = time.monotonic()
    done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {done.returncode}: {done.stderr[-500:]}")
    return elapsed


def build_db(db: Path) -> dict[str, float]:
    """Calibrate the cluster and profile :data:`APPS`; returns step seconds."""
    timings = {"calibrate_s": repro_cli(db, "calibrate")}
    for app, ranks in APPS:
        timings[f"profile_s.{app}"] = repro_cli(db, "profile", app, "--nprocs", str(ranks))
    return timings


def environment(fsync: str) -> dict:
    """The environment block printed with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    sha = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "fsync": fsync,
    }


class Child:
    """One CLI server subprocess in its own session (= process group)."""

    def __init__(self, name: str, args: list[str], workdir: Path) -> None:
        self.name = name
        self._stdout_path = workdir / f"{name}.{time.monotonic_ns()}.out"
        self._stderr_path = workdir / f"{name}.err"
        cmd = [sys.executable, "-m", "repro", *args]
        started = time.monotonic()
        with open(self._stdout_path, "wb") as out, open(self._stderr_path, "ab") as err:
            self.proc = subprocess.Popen(
                cmd, env=child_env(), stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        self.pgid = self.proc.pid
        self.peak_rss_kb = 0
        self.host, self.port = self._await_banner(started + 60.0)
        self.banner_s = time.monotonic() - started

    def _await_banner(self, deadline: float) -> tuple[str, int]:
        while True:
            match = _BANNER.search(self._stdout_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited {self.proc.returncode} before its banner: "
                    f"{self._stderr_path.read_text()[-500:]}"
                )
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"{self.name} printed no banner within 60 s")
            time.sleep(0.005)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def sample_rss(self) -> int:
        """Peak resident set (``VmHWM``, kB) so far; kept across the child's death."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return self.peak_rss_kb
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            self.peak_rss_kb = max(self.peak_rss_kb, int(match.group(1)))
        return self.peak_rss_kb

    def kill(self) -> None:
        """SIGKILL (the crash of ``crash_recover``) and reap."""
        self.sample_rss()
        self.proc.kill()
        self.proc.wait()

    def stop(self, grace_s: float = 10.0) -> None:
        """SIGTERM, then SIGKILL past the grace period; always reaps."""
        if self.proc.poll() is None:
            self.sample_rss()
            self.proc.terminate()
            try:
                self.proc.wait(grace_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def reap_group(self) -> int:
        """Kill whatever is left of the child's process group; returns how many."""
        leaked = 0
        for _ in range(200):
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                return leaked
            leaked = max(leaked, 1)
            time.sleep(0.01)
        return leaked


def _client(child: Child):
    # Imported here: ``run.py`` loads this module to find ``src/`` before
    # it can put it on the path.
    from repro.server.client import CbesClient

    return CbesClient(child.host, child.port, timeout_s=60.0)


def _require_healthy(child: Child) -> None:
    with _client(child) as client:
        if client.healthz()["status"] != "ok":
            raise RuntimeError(f"{child.name} is not healthy after its banner")


class Stack:
    """One replica (``repro serve``), optionally behind one ``repro fleet`` router."""

    def __init__(self, workdir: Path, db: Path, *, fsync: str, router: bool) -> None:
        self._workdir = workdir
        self._db = db
        self._fsync = fsync
        self._with_router = router
        self._data_dir = workdir / "data"
        self._children: list[Child] = []
        self.replica: Child | None = None
        self.router: Child | None = None
        self.boot_s = 0.0
        self.leaked = 0

    def _spawn_replica(self) -> Child:
        started = time.monotonic()
        args = [
            "--db", str(self._db), "--cluster", CLUSTER, "serve", "--port", "0",
            *REPLICA_FLAGS, "--data-dir", str(self._data_dir), "--fsync", self._fsync,
        ]
        child = Child("replica", args, self._workdir)
        self._children.append(child)
        _require_healthy(child)
        self.boot_s = time.monotonic() - started
        return child

    def start(self) -> None:
        self.replica = self._spawn_replica()
        if self._with_router:
            self.add_router()

    def add_router(self) -> None:
        """Put a ``repro fleet --backends`` router in front of the replica."""
        args = ["fleet", "--port", "0", "--backends", self.replica.address,
                "--log-level", "warning"]
        self.router = Child("router", args, self._workdir)
        self._children.append(self.router)
        _require_healthy(self.router)

    def client(self, *, direct: bool = False):
        """A client of the front door (the router when there is one)."""
        return _client(self.replica if direct or self.router is None else self.router)

    def crash_replica(self) -> None:
        self.replica.kill()

    def respawn_replica(self) -> None:
        """A fresh replica process on the same ``--data-dir`` (journal replay)."""
        self.replica = self._spawn_replica()

    def peak_rss_mb(self) -> float:
        """Peak ``VmHWM`` of the router plus the largest replica incarnation."""
        for child in self._children:
            child.sample_rss()
        replicas = [c.peak_rss_kb for c in self._children if c.name == "replica"]
        routers = [c.peak_rss_kb for c in self._children if c.name == "router"]
        return (max(replicas, default=0) + max(routers, default=0)) / 1024.0

    def stop(self) -> None:
        """Tear everything down; ``leaked`` counts groups that outlived SIGTERM."""
        for child in reversed(self._children):
            child.stop()
        self.leaked = sum(child.reap_group() for child in self._children)

"""Spawn and reap `repro serve` replica subprocesses.

``repro fleet --replicas N`` uses this to boot a self-contained fleet:
N daemon subprocesses on ephemeral ports (each its own process — own
GIL, own job store, own simulated cluster), discovered by parsing the
``serving on http://host:port`` banner each daemon prints on stdout.
With ``data_root`` set, replica *i* journals under
``data_root/r{i}``, so a restarted fleet recovers every replica's jobs.

It holds the replicas' configuration as one document, and is deliberately
synchronous: it runs before the router's event loop starts.
"""

from __future__ import annotations

import logging
import os
import re
import selectors
import subprocess
import sys
import time

from repro.server.config import DAEMON_FIELDS, REPLICA_FIELDS, daemon_config

__all__ = ["FleetSupervisor"]

log = logging.getLogger("repro.fleet.supervisor")

_BANNER = re.compile(rb"serving on http://([0-9.]+):(\d+)\r?\n")

#: How long a replica may take to print its banner.
STARTUP_TIMEOUT_S = 60.0


class FleetSupervisor:
    """Owns the lifecycle of N `repro serve` replica subprocesses.

    The *settings* keywords are the ``REPLICA_FIELDS`` rows of
    :data:`~repro.server.config.DAEMON_FIELDS`, checked before anything
    spawns.  Every replica gets the *same* seed: transparent scale-out
    means a job must produce the identical result no matter which
    replica it hashes to, so the replicas' simulated clusters and
    monitors must be indistinguishable.  (The ``schedule:best`` race
    varies *job* seeds, which is a different knob.)
    """

    def __init__(
        self,
        *,
        replicas: int,
        db: str = ".cbes-db",
        cluster: str = "orange-grove",
        seed: int = 0,
        data_root: str | None = None,
        log_level: str = "info",
        **settings,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if settings.keys() - set(REPLICA_FIELDS):
            raise TypeError(f"replica settings are {', '.join(REPLICA_FIELDS)}")
        #: The replicas' configuration document (every row of DAEMON_FIELDS).
        self.config = daemon_config(**settings)
        self._replicas = replicas
        self._db = db
        self._cluster = cluster
        self._seed = seed
        self._data_root = data_root
        self._log_level = log_level
        self._procs: list[subprocess.Popen] = []
        self.backends: list[str] = []

    def replica_config(self, index: int) -> dict:
        """:attr:`config` as replica *index* runs it: named ``r{index}``, and
        journaling under ``data_root/r{index}`` if there is a data root."""
        data_dir = None if self._data_root is None else os.path.join(self._data_root, f"r{index}")
        return {**self.config, "replica_id": f"r{index}", "data_dir": data_dir}

    def _command(self, index: int) -> list[str]:
        """``repro serve`` with ``--flag value`` for each setting off its default."""
        cmd = [
            sys.executable, "-m", "repro",
            "--db", self._db, "--cluster", self._cluster, "--seed", str(self._seed),
            "serve", "--host", "127.0.0.1", "--port", "0", "--log-level", self._log_level,
        ]
        for name, value in self.replica_config(index).items():
            row = DAEMON_FIELDS[name]
            if value != row.default:
                cmd += [row.flag, str(value)]
        return cmd

    def start(self) -> list[str]:
        """Boot every replica; returns their ``host:port`` addresses.

        Blocks until each replica prints its banner (it has bound its
        port and recovered its journal by then).  Any replica dying
        before the banner aborts the whole start.
        """
        if self._procs:
            raise RuntimeError("supervisor already started")
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        try:
            for index in range(self._replicas):
                proc = subprocess.Popen(
                    self._command(index),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    env=env,
                )
                self._procs.append(proc)
                self.backends.append(self._await_banner(proc, index))
                log.info("replica r%d serving on %s (pid %d)", index, self.backends[-1], proc.pid)
        except Exception:
            self.stop()
            raise
        return list(self.backends)

    def _await_banner(self, proc: subprocess.Popen, index: int) -> str:
        """Replica *index*'s ``host:port``, waiting only for the startup time left."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        out = b""
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while (match := _BANNER.search(out)) is None:
                if not selector.select(deadline - time.monotonic()):
                    raise RuntimeError(f"replica r{index} did not start in {STARTUP_TIMEOUT_S:g}s")
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"replica r{index} quit before serving (code {proc.poll()})")
                out += chunk
        return b":".join(match.groups()).decode()

    def poll(self) -> list[int | None]:
        """Exit codes of the replicas (``None`` while still running)."""
        return [proc.poll() for proc in self._procs]

    def stop(self, *, timeout_s: float = 10.0) -> None:
        """Terminate every replica (SIGTERM, then SIGKILL past the grace)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout_s
        for proc in self._procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self._procs.clear()

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

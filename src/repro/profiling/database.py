"""Persistent CBES database (paper section 2, figure 2).

*"The CBES infrastructure consists of a set of databases, profiling
tools, and monitoring daemons."*  This module is the database part: a
directory-backed store holding

* the **system profile** — the calibrated latency model per cluster,
  so the expensive off-line calibration phase is paid once and reloaded
  on every service start;
* the **application profiles** — one JSON document per application.

The layout is plain JSON files so entries are diffable, portable and
inspectable:

::

    <root>/
      system/<cluster>.json          calibrated latency model
      applications/<app>.json        application profile

"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro._util import write_atomic
from repro.cluster.latency import LatencyModel
from repro.profiling.profile import ApplicationProfile

__all__ = ["ProfileDatabase"]

_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _slug(name: str) -> str:
    if not name:
        raise ValueError("name must be nonempty")
    return _SAFE.sub("_", name)


@contextmanager
def _reading(path: Path) -> Iterator[None]:
    """Turn a stored file that does not parse or build into a ``ValueError``.

    The error names *path*: a torn file (a copy cut short, a disk that
    filled) must stop the command, not be mistaken for a foreign file.
    """
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"unreadable database file {path} ({type(exc).__name__}: {exc}); "
            "re-run the command that wrote it"
        ) from None


class ProfileDatabase:
    """Directory-backed store for system and application profiles."""

    def __init__(self, root: str | Path):
        self._root = Path(root)
        (self._root / "system").mkdir(parents=True, exist_ok=True)
        (self._root / "applications").mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    # -- system profiles -------------------------------------------------
    def _system_path(self, cluster_name: str) -> Path:
        return self._root / "system" / f"{_slug(cluster_name)}.json"

    def save_latency_model(self, cluster_name: str, model: LatencyModel) -> Path:
        """Persist a cluster's calibrated latency model."""
        path = self._system_path(cluster_name)
        write_atomic(path, json.dumps(model.to_dict()))
        return path

    def load_latency_model(self, cluster_name: str) -> LatencyModel:
        path = self._system_path(cluster_name)
        if not path.exists():
            raise KeyError(f"no system profile stored for cluster {cluster_name!r}")
        with _reading(path):
            return LatencyModel.from_dict(json.loads(path.read_text()))

    def has_system_profile(self, cluster_name: str) -> bool:
        return self._system_path(cluster_name).exists()

    # -- application profiles ------------------------------------------------
    def _app_path(self, app_name: str) -> Path:
        return self._root / "applications" / f"{_slug(app_name)}.json"

    def save_profile(self, profile: ApplicationProfile) -> Path:
        path = self._app_path(profile.app_name)
        profile.save(path)
        return path

    def load_profile(self, app_name: str) -> ApplicationProfile:
        path = self._app_path(app_name)
        if not path.exists():
            raise KeyError(f"no profile stored for application {app_name!r}")
        with _reading(path):
            return ApplicationProfile.load(path)

    def delete_profile(self, app_name: str) -> bool:
        """Remove a stored profile; returns whether it existed."""
        path = self._app_path(app_name)
        if path.exists():
            path.unlink()
            return True
        return False

    def _stored_profiles(self) -> list[tuple[Path, dict]]:
        """Every stored profile document, parsed once, in file-name order.

        A file that never mentions ``"app_name"`` is foreign and skipped,
        as is JSON without a top-level ``app_name``.  One that mentions
        it but does not parse is a torn profile: a ``ValueError`` naming
        it.
        """
        found = []
        for path in sorted((self._root / "applications").glob("*.json")):
            raw = path.read_bytes()
            if b'"app_name"' not in raw:
                continue
            with _reading(path):
                doc = json.loads(raw)
            if isinstance(doc, dict) and "app_name" in doc:
                found.append((path, doc))
        return found

    def applications(self) -> list[str]:
        """Names of all stored application profiles (by file content)."""
        return [str(doc["app_name"]) for _, doc in self._stored_profiles()]

    # -- service integration ----------------------------------------------------
    def attach(self, service) -> int:
        """Load everything relevant into a CBES service.

        Installs the stored latency model for the service's cluster (if
        present and the cluster is not yet calibrated) and registers all
        stored application profiles.  Returns the number of profiles
        loaded.
        """
        cluster = service.cluster
        if not cluster.is_calibrated and self.has_system_profile(cluster.name):
            model = self.load_latency_model(cluster.name)
            missing = set(cluster.node_ids()) - set(model.hosts)
            if missing:
                raise ValueError(
                    f"stored system profile for {cluster.name!r} lacks nodes {sorted(missing)[:5]}"
                )
            cluster._latency = model  # noqa: SLF001 - deliberate install
        stored = self._stored_profiles()
        for path, doc in stored:
            with _reading(path):
                profile = ApplicationProfile.from_dict(doc)
            service.register_profile(profile)
        return len(stored)

    def snapshot_service(self, service) -> int:
        """Persist a service's calibration and all registered profiles."""
        if service.cluster.is_calibrated:
            self.save_latency_model(service.cluster.name, service.cluster.latency_model)
        count = 0
        for name in service.profiled_applications:
            self.save_profile(service.profile(name))
            count += 1
        return count

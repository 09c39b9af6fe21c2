"""The daemon's configuration, declared once: one row per ``CbesDaemon`` keyword.

The checks are the wire checks of :mod:`repro.server.serialize`, so a
non-finite number is refused here as in a request body.  The daemon, the
CLI, the fleet supervisor and the layers under the daemon read the table.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from repro.server.protocol import MAX_BODY_BYTES
from repro.server.serialize import Check, FieldError, _number, _optional, _text

__all__ = ["DAEMON_FIELDS", "FSYNC_POLICIES", "HTTP_FIELDS", "REPLICA_FIELDS", "daemon_config"]

#: The journal's durability policies (see :mod:`repro.persist.journal`).
FSYNC_POLICIES = ("always", "interval", "never")


class Setting(NamedTuple):
    default: object
    check: Check
    flag: str | None  # the ``repro serve`` option; None: a keyword only
    help: str


_count = _number(integer=True, minimum=1)
_directory = _text("a directory path")
_replica = _text("a replica name")

DAEMON_FIELDS: dict[str, Setting] = {
    "workers": Setting(2, _count, "--workers", "job worker threads"),
    "queue_limit": Setting(16, _count, "--queue-limit", "max queued jobs before 429"),
    "job_ttl_s": Setting(600.0, _number(above=0.0), "--job-ttl", "finished-job retention (s)"),
    "refresh_interval_s": Setting(
        10.0, _number(minimum=0.0), "--refresh-interval",
        "snapshot refresh period in seconds (0 disables refresh)",
    ),
    "keepalive_max_requests": Setting(
        100, _count, None, "requests served per connection before the daemon closes it"
    ),
    "keepalive_timeout_s": Setting(
        30.0, _number(above=0.0), None, "idle seconds before a keep-alive connection is closed"
    ),
    "fsync": Setting(
        "interval", _text(f"one of {', '.join(FSYNC_POLICIES)}", FSYNC_POLICIES), "--fsync",
        f"journal fsync policy: {', '.join(FSYNC_POLICIES)}",
    ),
    "max_body_bytes": Setting(
        MAX_BODY_BYTES, _count, "--max-body-bytes", "largest accepted request body (413 beyond it)"
    ),
    "data_dir": Setting(
        None, _optional(lambda value, name, ctx=None: _directory(os.fspath(value), name, ctx)),
        "--data-dir", "journal job state to this directory (crash-recoverable; default in-memory)",
    ),
    "replica_id": Setting(
        "", lambda value, name, ctx=None: value if value == "" else _replica(value, name, ctx),
        "--replica-id", "identity reported in /v1/healthz (fleet replicas)",
    ),
}

#: The rows the HTTP core reads; the fleet router serves with their defaults.
HTTP_FIELDS = ("keepalive_max_requests", "keepalive_timeout_s", "max_body_bytes")
#: The rows a fleet gives every replica it spawns (``repro fleet`` flags).
REPLICA_FIELDS = ("workers", "queue_limit", "fsync")


def daemon_config(**settings: object) -> dict:
    """Every row in table order: its value in *settings*, checked, else its default."""
    unknown = settings.keys() - DAEMON_FIELDS.keys()
    if unknown:
        raise TypeError(f"unknown daemon setting(s) {sorted(unknown)}")
    config = {}
    for name, row in DAEMON_FIELDS.items():
        try:
            config[name] = row.check(settings.get(name, row.default), name, None)
        except FieldError as exc:
            raise ValueError(f"{name} must be {exc.wanted}") from None
    return config

"""Crash-safe persistence for the scheduling daemon.

The paper frames CBES as a long-lived *service*; this package gives the
daemon the durability that role demands without leaving the stdlib:

* :mod:`repro.persist.journal` — an append-only, length-prefixed,
  checksummed write-ahead journal with a configurable fsync policy
  (``always`` / ``interval`` / ``never``), torn-tail truncation on
  open, and checksum rejection of corrupted records;
* :mod:`repro.persist.store` — :class:`DurableJobStore`, the journaled
  job store: every :class:`~repro.server.jobs.JobStore` transition is
  logged as a JSON record, startup replays snapshot + journal, jobs
  that were queued/running at crash time are re-enqueued, and the
  journal compacts into a snapshot file once it outgrows a threshold.

Persistence is **opt-in**: ``repro serve --data-dir DIR`` activates it;
without the flag the daemon keeps the original in-memory TTL store.
See ``docs/FLEET.md`` for the journal format and recovery semantics.
"""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "FSYNC_POLICIES",
    "DurableJobStore",
    "Journal",
    "JournalCorruptError",
    "JournalError",
    "recover_state",
    "replay_journal",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "journal": (
            "FSYNC_POLICIES",
            "Journal",
            "JournalCorruptError",
            "JournalError",
            "replay_journal",
        ),
        "store": ("DurableJobStore", "recover_state"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

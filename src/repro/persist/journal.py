"""Append-only write-ahead journal with checksummed, length-prefixed records.

On-disk format (all integers big-endian):

    +----------------+----------------+----------------------+
    | length (4 B)   | crc32 (4 B)    | payload (length B)   |
    +----------------+----------------+----------------------+

where *payload* is one UTF-8 JSON object and *crc32* is
``zlib.crc32(payload)``.  The framing gives the two failure modes a
crash can leave behind sharply different treatments:

* **Torn tail** — the process (or machine) died mid-append, so the last
  record is shorter than its header promises (or the header itself is
  incomplete).  That is the *expected* crash artifact: replay stops at
  the last complete record and opening the journal for append truncates
  the torn bytes so new records extend a clean tail.
* **Checksum mismatch** — a record is complete but its payload does not
  hash to its header.  Appends never produce that state, so it means
  real corruption (bit rot, concurrent writers, operator error); replay
  refuses the journal with :class:`JournalCorruptError` rather than
  silently serving a half-wrong job history.

An append is one ``write`` and one flush however many records it
carries: the job store appends an accepted batch's ``create`` records,
or the outcomes of a run of jobs, as one unit.

Durability is a policy knob (``fsync=``):

* ``always``   — fsync after every append (every acknowledged record
  survives power loss; slowest);
* ``interval`` — flush after every append, fsync at most once per
  ``fsync_interval_s`` (bounded loss window; the default);
* ``never``    — flush to the OS only (survives process crashes, not
  power loss; fastest).

Thread-safe (one lock around the file).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from collections.abc import Callable, Iterator
from pathlib import Path

from repro._util import encode_json
from repro.server.config import DAEMON_FIELDS, FSYNC_POLICIES

__all__ = [
    "FSYNC_POLICIES",
    "HEADER_BYTES",
    "Journal",
    "JournalCorruptError",
    "JournalError",
    "replay_journal",
]

_HEADER = struct.Struct(">II")  # (payload length, crc32)
HEADER_BYTES = _HEADER.size

#: Refuse absurd single records outright: a length field beyond this is
#: treated as corruption, not as a 4 GiB allocation request.
MAX_RECORD_BYTES = 64 * 1024 * 1024


class JournalError(RuntimeError):
    """Base class for journal failures."""


class JournalCorruptError(JournalError):
    """A complete record failed its checksum (not a torn tail)."""


def _scan(data: bytes, path: Path) -> tuple[list[bytes], int]:
    """Parse *data* into payloads; returns (payloads, clean-tail offset).

    The clean-tail offset is where the last complete, checksum-valid
    record ends — bytes past it are a torn tail.  Raises
    :class:`JournalCorruptError` on a complete record whose checksum
    does not match (or whose length field is implausible).
    """
    payloads: list[bytes] = []
    offset = 0
    total = len(data)
    while total - offset >= HEADER_BYTES:
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            raise JournalCorruptError(
                f"{path}: record at byte {offset} declares {length} bytes "
                f"(limit {MAX_RECORD_BYTES}); journal is corrupt"
            )
        body_start = offset + HEADER_BYTES
        if total - body_start < length:
            break  # torn tail: header complete, payload is not
        payload = data[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            raise JournalCorruptError(
                f"{path}: record at byte {offset} fails its checksum; "
                "journal is corrupt (not a torn tail)"
            )
        payloads.append(payload)
        offset = body_start + length
    return payloads, offset


def replay_journal(path: str | Path) -> Iterator[dict]:
    """Yield every complete record of the journal at *path*, in order.

    A missing file replays as empty.  A torn final record (incomplete
    header or short payload) is tolerated — iteration simply stops at
    the last complete record.  A complete record with a bad checksum
    raises :class:`JournalCorruptError`; a record that is not a JSON
    object raises :class:`JournalError`.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return
    payloads, _clean = _scan(data, path)
    for i, payload in enumerate(payloads):
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JournalError(f"{path}: record {i} is not valid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise JournalError(f"{path}: record {i} is not a JSON object")
        yield record


class Journal:
    """One append-only journal file.

    Opening truncates any torn tail left by a crash (after validating
    everything before it), so appends always extend a clean prefix.

    Parameters
    ----------
    path:
        Journal file location (parent directories are created).
    fsync:
        Durability policy — one of :data:`FSYNC_POLICIES`.
    fsync_interval_s:
        Max seconds between fsyncs under the ``interval`` policy.
    clock:
        Injectable monotonic time source (tests use a fake clock).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: str = DAEMON_FIELDS["fsync"].default,
        fsync_interval_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if fsync_interval_s <= 0:
            raise ValueError("fsync_interval_s must be > 0")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fsync_interval = float(fsync_interval_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._records = 0
        self._writes = 0
        self._syncs = 0
        existing = b""
        if self.path.exists():
            existing = self.path.read_bytes()
        payloads, clean = _scan(existing, self.path)
        self._records = len(payloads)
        self._file = open(self.path, "ab")
        if clean != len(existing):
            # Torn tail from a crash mid-append: drop the partial record
            # so the next append starts a well-formed one.
            self._file.truncate(clean)
            self._file.seek(clean)
        self._size = clean
        self._last_sync = self._clock()

    # -- introspection --------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes of complete records currently in the file."""
        with self._lock:
            return self._size

    @property
    def records(self) -> int:
        """Complete records currently in the file."""
        with self._lock:
            return self._records

    @property
    def writes(self) -> int:
        """Appends (one ``write`` and flush each) over this object's lifetime."""
        with self._lock:
            return self._writes

    @property
    def syncs(self) -> int:
        """fsync calls issued over this object's lifetime (metrics)."""
        with self._lock:
            return self._syncs

    # -- writing --------------------------------------------------------
    def append(self, record: dict) -> int:
        """Append one JSON record; returns the bytes written."""
        return self.append_payload(encode_json(record))

    def append_payload(self, *payloads: bytes) -> int:
        """Append records already encoded as JSON objects (a caller holding
        part of one as bytes) in one write; returns the bytes written.

        Each payload is framed and checksummed as its own record.  They
        are flushed to the OS before returning; whether they are fsynced
        too depends on the policy (see the module docstring).
        """
        frames = []
        for payload in payloads:
            if len(payload) > MAX_RECORD_BYTES:
                raise JournalError(f"record of {len(payload)} bytes exceeds {MAX_RECORD_BYTES}")
            frames += _HEADER.pack(len(payload), zlib.crc32(payload)), payload
        data = b"".join(frames)
        with self._lock:
            self._file.write(data)
            self._file.flush()
            if self._fsync == "always":
                self._do_sync()
            elif self._fsync == "interval":
                now = self._clock()
                if now - self._last_sync >= self._fsync_interval:
                    self._do_sync()
            self._size += len(data)
            self._records += len(payloads)
            self._writes += 1
        return len(data)

    def _do_sync(self) -> None:
        os.fsync(self._file.fileno())
        self._syncs += 1
        self._last_sync = self._clock()

    def sync(self) -> None:
        """Force an fsync now (any policy)."""
        with self._lock:
            self._file.flush()
            if self._fsync != "never":
                self._do_sync()

    def reset(self) -> None:
        """Truncate to empty (called after compacting into a snapshot)."""
        with self._lock:
            self._file.truncate(0)
            self._file.seek(0)
            self._file.flush()
            if self._fsync != "never":
                self._do_sync()
            self._size = 0
            self._records = 0

    def close(self) -> None:
        """Flush, fsync (unless ``never``), and close the file."""
        with self._lock:
            if self._file.closed:
                return
            self._file.flush()
            if self._fsync != "never":
                os.fsync(self._file.fileno())
                self._syncs += 1
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

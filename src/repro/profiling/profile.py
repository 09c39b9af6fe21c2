"""Application profiles: the paper's summary of application behaviour.

A profile holds, per process ``i``:

* ``X_i`` — accumulated time executing its own code,
* ``O_i`` — accumulated time inside the message-passing library,
* ``B_i`` — accumulated time blocked on communication,
* the same-size *message groups* it sent and received per peer
  (``mgS_i`` / ``mgR_i`` in the paper, eq. 6),
* ``lambda_i`` — the communication correction factor (eq. 7), and

plus application-wide data: per-architecture measured speed ratios
(footnote 1), the mapping and node speeds of the profiling run, and the
segment structure.  Profiles serialize to/from plain JSON.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["MessageGroup", "ProcessProfile", "ApplicationProfile", "theta"]

#: Latency callable signature: (src_rank_node, dst_rank_node, size) -> seconds.
LatencyFn = Callable[[str, str, float], float]


@dataclass(frozen=True)
class MessageGroup:
    """A group of same-size messages exchanged with one peer process."""

    peer: int
    size_bytes: float
    count: int

    def __post_init__(self) -> None:
        if self.peer < 0:
            raise ValueError("peer must be >= 0")
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class ProcessProfile:
    """Profile of one application process (one MPI rank)."""

    rank: int
    own_time: float  # X_i
    overhead_time: float  # O_i
    blocked_time: float  # B_i
    sends: tuple[MessageGroup, ...] = ()
    recvs: tuple[MessageGroup, ...] = ()
    lam: float = 1.0  # lambda_i, eq. (7)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        for name in ("own_time", "overhead_time", "blocked_time", "lam"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def compute_time(self) -> float:
        """``X_i + O_i``, the CPU-bound part used by eq. (5)."""
        return self.own_time + self.overhead_time

    @property
    def bytes_sent(self) -> float:
        return sum(g.size_bytes * g.count for g in self.sends)

    @property
    def message_count(self) -> int:
        return sum(g.count for g in self.sends) + sum(g.count for g in self.recvs)


def theta(
    process: ProcessProfile,
    mapping: Mapping[int, str],
    latency: LatencyFn,
) -> float:
    """Theoretical communication time of one process under a mapping.

    Implements eq. (6): the sum over all send and receive message groups
    of ``count * L_c(src_node, dst_node, size)``, where the nodes come
    from *mapping* and ``L_c`` from the supplied latency callable (either
    no-load or load-adjusted).
    """
    total = 0.0
    me = mapping[process.rank]
    for group in process.recvs:
        total += group.count * latency(mapping[group.peer], me, group.size_bytes)
    for group in process.sends:
        total += group.count * latency(me, mapping[group.peer], group.size_bytes)
    return total


@dataclass
class ApplicationProfile:
    """Complete profile of an application, as CBES consumes it."""

    app_name: str
    nprocs: int
    processes: tuple[ProcessProfile, ...]
    #: Mapping (rank -> node id) in effect during the profiling run.
    profile_mapping: dict[int, str]
    #: Effective node speed each rank was profiled on (``Speed_profile``).
    profile_speeds: dict[int, float]
    #: Measured application speed per architecture name (footnote 1).
    arch_speed_ratios: dict[str, float] = field(default_factory=dict)
    #: Optional per-segment profiles (segment index -> profile).
    segments: dict[int, "ApplicationProfile"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if len(self.processes) != self.nprocs:
            raise ValueError("need exactly one ProcessProfile per rank")
        if [p.rank for p in self.processes] != list(range(self.nprocs)):
            raise ValueError("process profiles must be ordered by rank 0..nprocs-1")
        if sorted(self.profile_mapping) != list(range(self.nprocs)):
            raise ValueError("profile_mapping must cover all ranks")
        if sorted(self.profile_speeds) != list(range(self.nprocs)):
            raise ValueError("profile_speeds must cover all ranks")
        for rank, speed in self.profile_speeds.items():
            if speed <= 0:
                raise ValueError(f"profile speed for rank {rank} must be > 0")
        for p in self.processes:
            for group in (*p.recvs, *p.sends):
                if group.peer >= self.nprocs:
                    raise ValueError(
                        f"rank {p.rank} communicates with unknown peer {group.peer}"
                    )

    # -- derived quantities --------------------------------------------
    def process(self, rank: int) -> ProcessProfile:
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range")
        return self.processes[rank]

    @property
    def comp_comm_ratio(self) -> tuple[float, float]:
        """Aggregate (computation, communication) share of profiled time.

        Computation is ``sum(X + O)``, communication ``sum(B)``;
        normalised to fractions that sum to 1.  The paper quotes e.g.
        "80 %/20 % computation to communication ratio" for LU(2).
        """
        comp = sum(p.compute_time for p in self.processes)
        comm = sum(p.blocked_time for p in self.processes)
        total = comp + comm
        if total == 0.0:
            return 1.0, 0.0
        return comp / total, comm / total

    def speed_ratio_for(self, arch_name: str, base_speed: float) -> float:
        """Application speed on *arch_name* (measured if known, else base)."""
        return self.arch_speed_ratios.get(arch_name, base_speed)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        def proc_dict(p: ProcessProfile) -> dict:
            return {
                "rank": p.rank,
                "own_time": p.own_time,
                "overhead_time": p.overhead_time,
                "blocked_time": p.blocked_time,
                "lam": p.lam,
                "sends": [[g.peer, g.size_bytes, g.count] for g in p.sends],
                "recvs": [[g.peer, g.size_bytes, g.count] for g in p.recvs],
            }

        return {
            "app_name": self.app_name,
            "nprocs": self.nprocs,
            "processes": [proc_dict(p) for p in self.processes],
            "profile_mapping": {str(k): v for k, v in self.profile_mapping.items()},
            "profile_speeds": {str(k): v for k, v in self.profile_speeds.items()},
            "arch_speed_ratios": dict(self.arch_speed_ratios),
            "segments": {str(k): v.to_dict() for k, v in self.segments.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ApplicationProfile":
        def proc(d: Mapping) -> ProcessProfile:
            return ProcessProfile(
                rank=int(d["rank"]),
                own_time=float(d["own_time"]),
                overhead_time=float(d["overhead_time"]),
                blocked_time=float(d["blocked_time"]),
                lam=float(d["lam"]),
                sends=tuple(MessageGroup(int(p), float(s), int(c)) for p, s, c in d["sends"]),
                recvs=tuple(MessageGroup(int(p), float(s), int(c)) for p, s, c in d["recvs"]),
            )

        return cls(
            app_name=str(data["app_name"]),
            nprocs=int(data["nprocs"]),
            processes=tuple(proc(p) for p in data["processes"]),
            profile_mapping={int(k): str(v) for k, v in data["profile_mapping"].items()},
            profile_speeds={int(k): float(v) for k, v in data["profile_speeds"].items()},
            arch_speed_ratios={str(k): float(v) for k, v in data["arch_speed_ratios"].items()},
            segments={
                int(k): cls.from_dict(v) for k, v in dict(data.get("segments", {})).items()
            },
        )

    def save(self, path: str | Path) -> None:
        """Write the profile database entry as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "ApplicationProfile":
        """Read a profile database entry from JSON."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def merge_message_groups(
    raw: Sequence[tuple[int, float]],
) -> tuple[MessageGroup, ...]:
    """Collapse (peer, size) message observations into message groups."""
    counts: dict[tuple[int, float], int] = {}
    for peer, size in raw:
        counts[(peer, size)] = counts.get((peer, size), 0) + 1
    return tuple(
        MessageGroup(peer, size, count)
        for (peer, size), count in sorted(counts.items())
    )

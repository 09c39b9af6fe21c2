"""Discrete-event execution engine: the reproduction's ground truth.

The paper measures applications on real clusters; here the measurement
substrate is an event-driven simulator that executes a
:class:`~repro.simulate.program.Program` under a given mapping on a
:class:`~repro.cluster.cluster.Cluster`.  It models:

* **compute** — work divided by the node's effective speed for this
  application (architecture base speed x application affinity), scaled
  by the fair CPU share under co-mapped processes and background load,
  with seeded ~1 % run-to-run OS jitter;
* **point-to-point communication** with the two protocols real MPI
  implementations use:

  - **eager** (size <= ``eager_threshold_bytes``): the sender injects
    the message and continues — it is blocked only for the endpoint
    processing and first-link serialization; the message arrives at the
    destination one end-to-end latency after the send was posted, and
    the receiver blocks until ``max(arrival, post)``;
  - **rendezvous** (large messages): the transfer starts only when both
    sides have posted, lasts the load-adjusted end-to-end latency, and
    both sides resume at its completion;

  either way the path latency is the same physical model the
  calibration measures, inflated by contention on shared
  switch-to-switch links;
* **accounting** — every time slice is attributed to ``X`` (own code),
  ``O`` (MPI library overhead) or ``B`` (blocked), and every message is
  recorded, producing exactly the trace the profiling subsystem needs.

The CBES predictor never sees any of this machinery — it works from the
aggregate profile and the calibrated latency model — so prediction error
arises honestly from aggregation, jitter, protocol effects, and
contention.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro._util import spawn_rng
from repro.cluster.cluster import Cluster
from repro.cluster.latency import LOCAL, LatencyModel, PathComponents
from repro.profiling.events import TimeCategory
from repro.profiling.trace import ExecutionTrace
from repro.simulate.contention import LinkContentionTracker, cpu_share
from repro.simulate.timeline import LoadTimeline
from repro.simulate.program import (
    Compute,
    Exchange,
    Marker,
    Program,
    Recv,
    Send,
    SendRecv,
)

__all__ = ["SimulationConfig", "SimulationResult", "SimulationDeadlock", "ClusterSimulator"]


class SimulationDeadlock(RuntimeError):
    """Raised when no rank can make progress but the program is unfinished."""


@dataclass(frozen=True)
class SimulationConfig:
    """Tunable fidelity knobs of the ground-truth simulator."""

    #: Relative sigma of run-to-run noise on compute and transfer times.
    jitter: float = 0.01
    #: Host-side MPI software cost per posted message half, at unit speed.
    mpi_overhead_s: float = 5e-6
    #: Messages at or below this size use the eager protocol (LAM/MPI
    #: style); larger ones rendezvous.
    eager_threshold_bytes: float = 262144.0
    #: Model contention of the application's own messages on shared links.
    contention: bool = True
    #: Fraction of the bandwidth-sharing excess actually charged.  1.0 is
    #: pure fair-share bandwidth splitting on oversubscribed links; the
    #: default discounts it because concurrent transfers only partially
    #: overlap in practice (flow control staggers them), and the paper's
    #: <4 % prediction errors imply self-contention (which the CBES
    #: formula cannot see) stayed second order on its testbeds.
    contention_gamma: float = 0.3

    def __post_init__(self) -> None:
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.mpi_overhead_s < 0:
            raise ValueError("mpi_overhead_s must be >= 0")
        if self.eager_threshold_bytes < 0:
            raise ValueError("eager_threshold_bytes must be >= 0")
        if self.contention_gamma < 0:
            raise ValueError("contention_gamma must be >= 0")


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    total_time: float
    rank_end_times: list[float]
    mapping: dict[int, str]
    trace: ExecutionTrace | None = None
    messages_delivered: int = 0
    stats: dict[str, float] = field(default_factory=dict)


class _Half:
    """One direction of an outstanding communication op."""

    __slots__ = ("kind", "owner", "peer", "size", "ready", "done", "arrival")

    def __init__(self, kind: str, owner: int, peer: int, size: float, ready: float):
        self.kind = kind  # "send" | "recv"
        self.owner = owner
        self.peer = peer
        self.size = size
        self.ready = ready
        self.done: float | None = None
        #: Eager sends: when the message lands at the destination.
        self.arrival: float | None = None


class _Outstanding:
    """A blocked communication op awaiting resolution of its halves."""

    __slots__ = ("halves", "posted_at")

    def __init__(self, halves: list[_Half], posted_at: float):
        self.halves = halves
        self.posted_at = posted_at

    @property
    def resolved(self) -> bool:
        return all(h.done is not None for h in self.halves)

    @property
    def completion(self) -> float:
        return max(h.done for h in self.halves)  # type: ignore[arg-type]


class ClusterSimulator:
    """Executes programs on a cluster model with blocking MPI semantics."""

    def __init__(self, cluster: Cluster, config: SimulationConfig | None = None):
        self._cluster = cluster
        self._config = config or SimulationConfig()
        self._nodes = cluster.nodes
        # Ground truth uses the exact analytic latency decomposition, not
        # the calibrated model the predictor sees: each pair is derived
        # from the wiring the first time a run sends over it.
        self._exact: dict[tuple[str, str], PathComponents] = {}
        # First-hop (host uplink) bandwidth per node: bounds how long an
        # eager sender is busy injecting a message.
        fabric = cluster.fabric
        self._uplink_bps = {
            nid: fabric.link(nid, fabric.switch_of(nid)).bandwidth_bps for nid in fabric.hosts
        }

    def _exact_components(self, src: str, dst: str) -> PathComponents:
        """The exact latency components of ``(src, dst)``, derived once."""
        comps = self._exact.get((src, dst))
        if comps is None:
            if src == dst:
                comps = LOCAL
            else:
                comps = LatencyModel.analytic_components(
                    self._cluster.fabric, self._nodes, src, dst
                )
            self._exact[(src, dst)] = comps
        return comps

    @property
    def config(self) -> SimulationConfig:
        return self._config

    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        mapping: Mapping[int, str],
        *,
        seed: int = 0,
        arch_affinity: Callable[[str], float] | None = None,
        collect_trace: bool = True,
    ) -> SimulationResult:
        """Execute *program* under *mapping*; return the measured outcome.

        Parameters
        ----------
        seed:
            Run seed; distinct seeds model distinct real runs (the paper
            averages 5 or 100 runs per case).
        arch_affinity:
            The application's true relative speed multiplier per
            architecture name (ground truth; workload models provide it).
        collect_trace:
            Record the full execution trace (needed for profiling runs;
            can be disabled for bulk measurement runs).
        """
        program.validate()
        mapping = dict(mapping)
        if sorted(mapping) != list(range(program.nprocs)):
            raise ValueError("mapping must assign a node to every rank 0..nprocs-1")
        nodes = self._cluster.nodes
        for rank, nid in mapping.items():
            if nid not in nodes:
                raise KeyError(f"mapping assigns rank {rank} to unknown node {nid!r}")

        cfg = self._config
        rng = spawn_rng(seed, "sim", program.name)

        # Per-node static conditions for this run.
        procs_on: dict[str, int] = {}
        for nid in mapping.values():
            procs_on[nid] = procs_on.get(nid, 0) + 1
        share: dict[str, float] = {}
        speed: dict[int, float] = {}
        base_speed: dict[int, float] = {}
        timelines: dict[str, LoadTimeline] = {}
        for rank in range(program.nprocs):
            node = nodes[mapping[rank]]
            s = share.setdefault(
                node.node_id, cpu_share(node.ncpus, procs_on[node.node_id], node.background_load)
            )
            if node.load_schedule and node.node_id not in timelines:
                timelines[node.node_id] = LoadTimeline(
                    node.load_schedule,
                    initial=node.background_load,
                    ncpus=node.ncpus,
                    mapped_procs=procs_on[node.node_id],
                )
            base = node.arch.base_speed * (
                arch_affinity(node.arch.name) if arch_affinity else 1.0
            )
            base_speed[rank] = base
            speed[rank] = base * s

        trace = (
            ExecutionTrace(program.name, program.nprocs, mapping) if collect_trace else None
        )
        tracker = LinkContentionTracker(self._cluster.fabric) if cfg.contention else None

        clock = [0.0] * program.nprocs
        pc = [0] * program.nprocs
        segment = [0] * program.nprocs
        outstanding: dict[int, _Outstanding] = {}
        pending_sends: dict[tuple[int, int], deque[_Half]] = {}
        pending_recvs: dict[tuple[int, int], _Half] = {}
        runnable: deque[int] = deque(range(program.nprocs))
        queued = [True] * program.nprocs
        delivered = 0

        # Jitter draws are batched: one bulk call per 4096 ops instead
        # of a draw per op (the engine's hottest line).
        jitter_buf: list[float] = []

        def jitter() -> float:
            if cfg.jitter == 0.0:
                return 1.0
            if not jitter_buf:
                jitter_buf.extend(abs(x) for x in rng.normal(1.0, cfg.jitter, size=4096))
            return jitter_buf.pop()

        def transfer_latency(src_rank: int, dst_rank: int, size: float, start: float) -> float:
            src, dst = mapping[src_rank], mapping[dst_rank]
            comps = self._exact_components(src, dst)
            # Endpoint processing timeshares with everything on the node;
            # cpu_share already folds in co-mapped processes and
            # background load (instantaneous share when a load schedule
            # is active).
            share_src = timelines[src].share_at(start) if src in timelines else share[src]
            share_dst = timelines[dst].share_at(start) if dst in timelines else share[dst]
            a_src = comps.alpha_src / share_src
            a_dst = comps.alpha_dst / share_dst
            nic = min(max(nodes[src].nic_load, nodes[dst].nic_load), 0.95)
            ser = size * comps.beta / (1.0 - nic)
            if tracker is not None and src != dst:
                base_end = start + a_src + a_dst + comps.alpha_net + ser
                flow_bps = 8.0 / comps.beta  # this flow's solo rate
                infl = tracker.inflation(src, dst, start, base_end, flow_bps)
                ser *= 1.0 + cfg.contention_gamma * (infl - 1.0)
            latency = (a_src + a_dst + comps.alpha_net + ser) * jitter()
            if tracker is not None and src != dst:
                tracker.register(src, dst, start, start + latency)
            return latency

        def inject_time(src_rank: int, size: float) -> float:
            """Eager sender busy time: endpoint cost + first-link wire."""
            src = mapping[src_rank]
            alpha = nodes[src].nic.send_overhead_s / share[src]
            return alpha + size * 8.0 / self._uplink_bps[src]

        def resolve_rendezvous(send: _Half, recv: _Half) -> None:
            nonlocal delivered
            start = max(send.ready, recv.ready)
            done = start + transfer_latency(send.owner, recv.owner, send.size, start)
            send.done = done
            recv.done = done
            delivered += 1
            if trace is not None:
                trace.record_message(
                    send.owner, recv.owner, send.size, start, done, segment[send.owner]
                )
            for rank in (send.owner, recv.owner):
                maybe_complete(rank)

        def resolve_eager_recv(send: _Half, recv: _Half) -> None:
            nonlocal delivered
            recv.done = max(recv.ready, send.arrival)  # type: ignore[arg-type]
            delivered += 1
            if trace is not None:
                trace.record_message(
                    send.owner, recv.owner, send.size, send.ready, recv.done, segment[send.owner]
                )
            maybe_complete(recv.owner)

        def maybe_complete(rank: int) -> None:
            out = outstanding.get(rank)
            if out is not None and out.resolved:
                end = max(out.completion, out.posted_at)
                if trace is not None:
                    trace.record_time(
                        rank, TimeCategory.BLOCKED, out.posted_at, end - out.posted_at, segment[rank]
                    )
                clock[rank] = end
                del outstanding[rank]
                pc[rank] += 1
                if not queued[rank]:
                    queued[rank] = True
                    runnable.append(rank)

        def post_halves(rank: int, halves: list[_Half]) -> None:
            """Charge MPI overhead, post halves, attempt immediate matches."""
            o_cost = cfg.mpi_overhead_s * len(halves) / max(speed[rank], 1e-12)
            if trace is not None and o_cost > 0:
                trace.record_time(
                    rank, TimeCategory.MPI_OVERHEAD, clock[rank], o_cost, segment[rank]
                )
            clock[rank] += o_cost
            for h in halves:
                h.ready = clock[rank]
            out = _Outstanding(halves, clock[rank])
            outstanding[rank] = out
            for h in halves:
                if h.kind == "send":
                    channel = (rank, h.peer)
                    if h.size <= cfg.eager_threshold_bytes:
                        # Eager: the sender is busy only for the
                        # injection; the message travels independently.
                        h.arrival = h.ready + transfer_latency(rank, h.peer, h.size, h.ready)
                        h.done = h.ready + inject_time(rank, h.size)
                        waiting = pending_recvs.get(channel)
                        if waiting is not None:
                            del pending_recvs[channel]
                            resolve_eager_recv(h, waiting)
                        else:
                            pending_sends.setdefault(channel, deque()).append(h)
                    else:
                        waiting = pending_recvs.get(channel)
                        if waiting is not None:
                            del pending_recvs[channel]
                            resolve_rendezvous(h, waiting)
                        else:
                            pending_sends.setdefault(channel, deque()).append(h)
                else:
                    channel = (h.peer, rank)
                    queue = pending_sends.get(channel)
                    if queue:
                        send = queue.popleft()
                        if not queue:
                            del pending_sends[channel]
                        if send.arrival is not None:
                            resolve_eager_recv(send, h)
                        else:
                            resolve_rendezvous(send, h)
                    else:
                        if channel in pending_recvs:
                            raise SimulationDeadlock(
                                f"rank {rank} posted a second unmatched recv from {h.peer}"
                            )
                        pending_recvs[channel] = h
            maybe_complete(rank)

        def advance(rank: int) -> None:
            stream = program.ops[rank]
            while pc[rank] < len(stream) and rank not in outstanding:
                op = stream[pc[rank]]
                if isinstance(op, Compute):
                    if op.work > 0:
                        node_id = mapping[rank]
                        timeline = timelines.get(node_id)
                        if timeline is None:
                            duration = op.work / speed[rank] * jitter()
                        else:
                            # CPU seconds needed, integrated over the
                            # node's time-varying share.
                            cpu_seconds = op.work / base_speed[rank] * jitter()
                            duration = (
                                timeline.finish_time(clock[rank], cpu_seconds) - clock[rank]
                            )
                        if trace is not None:
                            trace.record_time(
                                rank, TimeCategory.OWN_CODE, clock[rank], duration, segment[rank]
                            )
                        clock[rank] += duration
                    pc[rank] += 1
                elif isinstance(op, Marker):
                    segment[rank] += 1
                    if trace is not None:
                        trace.record_marker(rank, clock[rank], segment[rank], op.label)
                    pc[rank] += 1
                elif isinstance(op, Send):
                    post_halves(rank, [_Half("send", rank, op.dst, op.size_bytes, clock[rank])])
                elif isinstance(op, Recv):
                    post_halves(rank, [_Half("recv", rank, op.src, op.size_bytes, clock[rank])])
                elif isinstance(op, Exchange):
                    post_halves(
                        rank,
                        [
                            _Half("send", rank, op.peer, op.send_bytes, clock[rank]),
                            _Half("recv", rank, op.peer, op.recv_bytes, clock[rank]),
                        ],
                    )
                elif isinstance(op, SendRecv):
                    post_halves(
                        rank,
                        [
                            _Half("send", rank, op.dst, op.send_bytes, clock[rank]),
                            _Half("recv", rank, op.src, op.recv_bytes, clock[rank]),
                        ],
                    )
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown op {op!r}")
                # post_halves may have resolved and completed the op
                # synchronously, in which case pc advanced and we continue.

        while runnable:
            rank = runnable.popleft()
            queued[rank] = False
            advance(rank)

        unfinished = [r for r in range(program.nprocs) if pc[r] < len(program.ops[r])]
        if unfinished:
            details = []
            for r in unfinished[:8]:
                op = program.ops[r][pc[r]]
                details.append(f"rank {r} blocked at op {pc[r]}: {op!r}")
            raise SimulationDeadlock(
                f"{program.name}: {len(unfinished)} ranks cannot progress; " + "; ".join(details)
            )

        total = max(clock) if clock else 0.0
        if trace is not None:
            trace.finish(total)
        return SimulationResult(
            total_time=total,
            rank_end_times=list(clock),
            mapping=mapping,
            trace=trace,
            messages_delivered=delivered,
            stats={"total_work": program.total_work},
        )

    # ------------------------------------------------------------------
    def effective_speed(
        self,
        node_id: str,
        *,
        arch_affinity: Callable[[str], float] | None = None,
        mapped_procs: int = 1,
    ) -> float:
        """Ground-truth effective speed of one process on *node_id*."""
        node = self._cluster.node(node_id)
        base = node.arch.base_speed * (arch_affinity(node.arch.name) if arch_affinity else 1.0)
        return base * cpu_share(node.ncpus, mapped_procs, node.background_load)

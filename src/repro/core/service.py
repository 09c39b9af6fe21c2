"""The CBES service facade.

Ties the subsystems together the way figure 2 of the paper draws them:
the *system* side (calibrated latency model + monitoring daemons) and
the *application* side (profile database + profiling runs) feed the core
mapping-evaluation module, which serves mapping comparison requests from
external clients such as the schedulers.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from functools import partial
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.cluster.cluster import Cluster
from repro.cluster.latency import LatencyModel
from repro.core.errors import NotCalibratedError, UnknownProfileError
from repro.core.evaluation import EvaluationOptions, MappingEvaluator, MappingPrediction
from repro.core.fast_eval import EvaluationContext, SystemTables
from repro.core.mapping import TaskMapping
from repro.monitoring.monitor import SystemMonitor
from repro.monitoring.snapshot import SystemSnapshot
from repro.profiling.analyzer import TraceAnalyzer
from repro.profiling.profile import ApplicationProfile
from repro.profiling.speeds import measure_speed_ratios
from repro.simulate.engine import ClusterSimulator, SimulationConfig
from repro.simulate.program import Program

__all__ = ["ApplicationModel", "CBES", "CONTEXT_CACHE_EVENTS_TOTAL", "Generation"]

#: (name, help, labelnames) of the counter every context lookup counts into.
CONTEXT_CACHE_EVENTS_TOTAL = (
    "cbes_context_cache_events_total", "Evaluation-context cache events.", ("event",)
)


@runtime_checkable
class ApplicationModel(Protocol):
    """What the service needs from an application to profile it.

    Workload models in :mod:`repro.workloads` satisfy this protocol.
    """

    name: str

    def program(self, nprocs: int) -> Program:
        """The application's op stream for a given process count."""

    def arch_affinity(self, arch_name: str) -> float:
        """The application's relative speed multiplier on an architecture."""


@dataclass(frozen=True, slots=True, eq=False)
class Generation:
    """A frozen snapshot, its digest and the contexts built from it: what a
    holder prices requests against, whatever the service adopts meanwhile.
    Its contexts are views over one :class:`SystemTables`, whose pair
    tables the generation took over from the one before it."""

    service: CBES
    snapshot: SystemSnapshot
    fingerprint: str  # hashed once, at adoption
    latency_model: LatencyModel | None
    system: SystemTables | None  # None until calibrated
    #: (app name, options) -> context; added to under build_lock, read without it.
    contexts: dict[tuple[str, EvaluationOptions], EvaluationContext] = field(default_factory=dict)
    build_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def context(
        self, app_name: str, options: EvaluationOptions = EvaluationOptions()
    ) -> EvaluationContext:
        """The context of (app, options); counts one ``hit`` or ``miss`` into the
        ambient registry.  A hit takes no lock and hashes nothing; a context of
        a profile since replaced under *app_name* is rebuilt."""
        from repro.telemetry import get_registry

        profile, key, event = self.service.profile(app_name), (app_name, options), "hit"
        context = self.contexts.get(key)
        if context is None or context.profile is not profile:
            with self.build_lock:  # N requests arriving together share one build
                context = self.contexts.get(key)
                if context is None or context.profile is not profile:
                    if self.latency_model is None:
                        raise NotCalibratedError("calibrate the system before evaluating mappings")
                    event = "miss"
                    context = self.contexts[key] = EvaluationContext(
                        profile, self.latency_model, self.service.cluster.nodes,
                        self.snapshot, options, fingerprint=self.fingerprint,
                        system=self.system,
                    )
        get_registry().counter(*CONTEXT_CACHE_EVENTS_TOTAL).inc(event=event)
        return context

    def evaluator(
        self, app_name: str, options: EvaluationOptions = EvaluationOptions()
    ) -> MappingEvaluator:
        """An evaluator of this snapshot whose fast path is :meth:`context`,
        looked up on first use: inside the search, so a miss's build is timed
        with it, and a search that never takes the fast path looks nothing up."""
        if self.latency_model is None:
            raise NotCalibratedError("calibrate the system before evaluating mappings")
        evaluator = MappingEvaluator(self.service.profile(app_name), self.latency_model,
                                     self.service.cluster.nodes, self.snapshot, options)
        evaluator.install_context(partial(self.context, app_name), self.fingerprint)
        return evaluator


class CBES:
    """Cost/Benefit Estimating Service for one cluster.

    Typical lifecycle (mirrors the paper's operational phases)::

        service = CBES(orange_grove())
        service.calibrate()                  # one-off off-line phase
        service.start_monitoring()           # daemons begin polling
        profile = service.profile_application(app, nprocs=8)
        evaluator = service.evaluator(app.name)
        ranked = service.compare(app.name, candidate_mappings)
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        monitor: SystemMonitor | None = None,
        simulator_config: SimulationConfig | None = None,
    ) -> None:
        self._cluster = cluster
        self._monitor = monitor
        self._profiles: dict[str, ApplicationProfile] = {}
        self._simulator = ClusterSimulator(cluster, simulator_config)
        self._generation: Generation | None = None
        self._adopt_lock = threading.Lock()

    # -- system side ------------------------------------------------------
    @property
    def cluster(self) -> Cluster:
        """The cluster model this service instance is attached to."""
        return self._cluster

    @property
    def simulator(self) -> ClusterSimulator:
        """The measurement substrate (stands in for the real cluster)."""
        return self._simulator

    def calibrate(self, *, noise: float = 0.01, seed: int = 0):
        """Run the off-line system calibration phase (section 2).

        The cluster must be unloaded, exactly as the paper requires.
        """
        loaded = [
            nid
            for nid, node in self._cluster.nodes.items()
            if node.background_load > 0 or node.nic_load > 0
        ]
        if loaded:
            raise NotCalibratedError(
                f"calibration requires an unloaded system; loaded nodes: {loaded[:5]}"
            )
        return self._cluster.calibrate(noise=noise, seed=seed)

    def start_monitoring(self, *, forecaster: str = "last-value", seed: int = 0, **kwargs) -> SystemMonitor:
        """Create and attach the monitoring daemons.

        Idempotent for long-running processes (the scheduling daemon
        restarts monitoring after snapshot-refresh failures): when a
        monitor is already attached, the call is a no-op returning the
        existing monitor.  Call :meth:`stop_monitoring` first to attach
        one with different settings.
        """
        if self._monitor is None:
            self._monitor = SystemMonitor(self._cluster, forecaster=forecaster, seed=seed, **kwargs)
        return self._monitor

    def stop_monitoring(self) -> None:
        """Detach the monitoring daemons; a no-op when none are attached."""
        self._monitor = None

    @property
    def is_monitoring(self) -> bool:
        """Whether a monitor is currently attached."""
        return self._monitor is not None

    @property
    def monitor(self) -> SystemMonitor:
        """The attached system monitor (raises until monitoring starts)."""
        if self._monitor is None:
            raise NotCalibratedError("no monitor attached; call start_monitoring() first")
        return self._monitor

    def snapshot(self) -> SystemSnapshot:
        """Current resource availability, from the monitor if present.

        Without a monitor the *true* cluster state is used (an oracle —
        convenient for controlled experiments; the real service always
        goes through the monitor).
        """
        if self._monitor is not None:
            if self._monitor.polls == 0:
                self._monitor.poll()
            return self._monitor.snapshot()
        return SystemSnapshot.from_cluster(self._cluster)

    # -- application side -----------------------------------------------------
    def register_profile(self, profile: ApplicationProfile) -> None:
        """Add a profile to the application profile database."""
        self._profiles[profile.app_name] = profile

    def profile(self, app_name: str) -> ApplicationProfile:
        """The stored profile for *app_name* (raises if never profiled)."""
        try:
            return self._profiles[app_name]
        except KeyError:
            raise UnknownProfileError(
                f"no profile for {app_name!r}; run profile_application() first"
            ) from None

    @property
    def profiled_applications(self) -> list[str]:
        """Names of every application with a profile in the database."""
        return sorted(self._profiles)

    def profile_application(
        self,
        app: ApplicationModel,
        nprocs: int,
        *,
        mapping: TaskMapping | None = None,
        seed: int = 0,
        per_segment: bool = False,
    ) -> ApplicationProfile:
        """Run the application once under tracing and build its profile.

        The profiling run uses the given mapping (default: the first
        *nprocs* nodes of the cluster) on the *unloaded* system, then
        analyzes the trace into a profile, measures per-architecture
        speed ratios, and registers the result in the profile database.
        """
        if not self._cluster.is_calibrated:
            raise NotCalibratedError("calibrate the system before profiling applications")
        program = app.program(nprocs)
        if mapping is None:
            nodes = self._cluster.node_ids()
            if nprocs > len(nodes):
                raise ValueError(
                    f"cannot place {nprocs} processes one per node on the "
                    f"{len(nodes)} nodes of {self._cluster.name!r}"
                )
            mapping = TaskMapping(nodes[:nprocs])
        mapping.require_nodes(self._cluster.node_ids())
        result = self._simulator.run(
            program, mapping.as_dict(), seed=seed, arch_affinity=app.arch_affinity
        )
        assert result.trace is not None
        speed_ratios = measure_speed_ratios(
            self._cluster.architectures().values(),
            affinity=app.arch_affinity,
            seed=seed,
            app_name=app.name,
        )
        profile_speeds = {
            rank: self._cluster.node(mapping.node_of(rank)).speed_for(speed_ratios)
            for rank in range(nprocs)
        }
        analyzer = TraceAnalyzer(self._cluster.latency_model)
        profile = analyzer.analyze(
            result.trace,
            profile_speeds=profile_speeds,
            arch_speed_ratios=speed_ratios,
            per_segment=per_segment,
        )
        self.register_profile(profile)
        return profile

    # -- core: mapping comparison ------------------------------------------------
    def adopt(self, snapshot: SystemSnapshot) -> Generation:
        """The generation of the frozen *snapshot*: the current one when its
        digest and latency model match, else a new, empty one that replaces it
        (atomically: concurrent adopters of a new snapshot share one) and
        keeps its pair tables while the latency model is the same."""
        fingerprint = snapshot.fingerprint()
        latency = self._cluster.latency_model if self._cluster.is_calibrated else None
        with self._adopt_lock:
            current = self._generation
            if current is None or (current.fingerprint, current.latency_model) != (
                fingerprint, latency
            ):
                inherited = None
                if current is not None and current.latency_model is latency:
                    inherited = current.system
                system = None if latency is None else SystemTables(
                    latency, sorted(self._cluster.nodes), snapshot, previous=inherited
                )
                current = self._generation = Generation(
                    self, snapshot, fingerprint, latency, system
                )
        return current

    def evaluator(
        self,
        app_name: str,
        *,
        options: EvaluationOptions = EvaluationOptions(),
        snapshot: SystemSnapshot | None = None,
    ) -> MappingEvaluator:
        """A cold mapping evaluator bound to the named application and fresh data."""
        if not self._cluster.is_calibrated:
            raise NotCalibratedError("calibrate the system before evaluating mappings")
        return MappingEvaluator(
            profile=self.profile(app_name),
            latency_model=self._cluster.latency_model,
            nodes=self._cluster.nodes,
            snapshot=snapshot if snapshot is not None else self.snapshot(),
            options=options,
        )

    def compare(
        self,
        app_name: str,
        mappings: Sequence[TaskMapping],
        *,
        options: EvaluationOptions = EvaluationOptions(),
    ) -> list[MappingPrediction]:
        """Serve a mapping comparison request: candidates ranked fastest first."""
        return self.evaluator(app_name, options=options).compare(list(mappings))

    def schedule(
        self,
        app_name: str,
        scheduler: "SchedulerLike",
        pool: Sequence[str],
        *,
        options: EvaluationOptions = EvaluationOptions(),
        seed: int = 0,
    ):
        """Run an external scheduler against the current snapshot's generation."""
        from repro.telemetry import stage

        with stage(
            "cbes.schedule",
            app=app_name,
            scheduler=getattr(scheduler, "name", type(scheduler).__name__),
            pool=len(pool),
            seed=seed,
        ):
            evaluator = self.adopt(self.snapshot().freeze()).evaluator(app_name, options)
            return scheduler.schedule(evaluator, list(pool), seed=seed)


@runtime_checkable
class SchedulerLike(Protocol):
    """Anything that can pick a mapping given an evaluator and a node pool."""

    def schedule(self, evaluator: MappingEvaluator, pool: list[str], *, seed: int = 0):
        """Pick a mapping for the evaluator's application from *pool*."""
        ...

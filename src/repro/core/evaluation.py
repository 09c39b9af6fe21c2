"""The mapping evaluation operation (paper section 3, eqs. 4–8).

For a mapping ``M`` the predicted execution time is

.. math::  S_M = \\max_i (R_i + C_i)

with the computation term (eq. 5)

.. math::  R_i = (X_i + O_i) \\cdot \\frac{Speed_{profile_j}}{Speed_j}
           \\cdot \\frac{1}{ACPU_j}

and the communication term (eq. 8) ``C_i = Theta_i^M * lambda_i``,
where ``Theta_i^M`` (eq. 6) sums ``count * L_c(...)`` over the
process's message groups under the candidate mapping and ``lambda_i``
(eq. 7) is the profile's overlap/overhead correction factor.

``MappingEvaluator`` exposes toggles for the two CBES ablations studied
here (and used by the NCS scheduler of section 6): dropping the
communication term entirely, dropping the lambda correction, and using
no-load rather than load-adjusted latencies.
"""

from __future__ import annotations

from collections.abc import Callable
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass

from repro._util import check_fraction
from repro.cluster.latency import LatencyModel
from repro.cluster.node import Node
from repro.core.errors import InvalidMappingError
from repro.core.mapping import TaskMapping
from repro.monitoring.snapshot import SystemSnapshot
from repro.profiling.profile import ApplicationProfile, theta

__all__ = ["EvaluationOptions", "ProcessPrediction", "MappingPrediction", "MappingEvaluator"]


@dataclass(frozen=True)
class EvaluationOptions:
    """Which terms of the cost formula to include."""

    #: Include the communication term C_i (False reproduces NCS).
    communication: bool = True
    #: Apply the lambda_i correction of eq. (7) (ablation knob).
    use_lambda: bool = True
    #: Use load-adjusted latencies L_c; False falls back to no-load L_0.
    load_adjusted_latency: bool = True
    #: Account for CPU availability (the 1/ACPU_j factor of eq. 5).
    cpu_availability: bool = True


@dataclass(frozen=True)
class ProcessPrediction:
    """Per-process contribution to a mapping's predicted time."""

    rank: int
    node_id: str
    computation: float  # R_i
    communication: float  # C_i

    @property
    def total(self) -> float:
        """``R_i + C_i``: this process's predicted busy time (eq. 4)."""
        return self.computation + self.communication


@dataclass(frozen=True)
class MappingPrediction:
    """Result of evaluating one mapping."""

    mapping: TaskMapping
    processes: tuple[ProcessPrediction, ...]

    @property
    def execution_time(self) -> float:
        """``S_M``: the predicted application execution time (eq. 4)."""
        return max(p.total for p in self.processes)

    @property
    def critical(self) -> ProcessPrediction:
        """The process that defines the execution time (ties: lowest rank)."""
        return max(self.processes, key=lambda p: (p.total, -p.rank))

    @property
    def critical_rank(self) -> int:
        """``i_M``: the rank of :attr:`critical`."""
        return self.critical.rank

    def breakdown(self, rank: int) -> ProcessPrediction:
        """The per-process R_i/C_i split for one MPI rank."""
        if not 0 <= rank < len(self.processes):
            raise ValueError(f"rank {rank} out of range")
        return self.processes[rank]


class MappingEvaluator:
    """Evaluates candidate mappings for one profiled application.

    Parameters
    ----------
    profile:
        The application profile (from the profiling subsystem).
    latency_model:
        The *calibrated* cluster latency model.
    nodes:
        Static node table of the cluster (hardware description).
    snapshot:
        Current resource availability (from the monitoring subsystem).
    options:
        Term toggles; defaults give the full CBES formula.
    """

    def __init__(
        self,
        profile: ApplicationProfile,
        latency_model: LatencyModel,
        nodes: MappingABC[str, Node],
        snapshot: SystemSnapshot,
        options: EvaluationOptions = EvaluationOptions(),
    ) -> None:
        self._profile = profile
        self._latency = latency_model
        self._nodes = nodes
        self._snapshot = snapshot
        self._options = options
        self._evaluations = 0
        # Fast-path contexts cached by (options, snapshot fingerprint);
        # see fast_context() for the invalidation rule.
        self._fast_contexts: dict[tuple, object] = {}
        # Set by install_context; None: hash the snapshot / build the context.
        self._fingerprint: str | None = None
        self._resolve: Callable[[EvaluationOptions], object] | None = None

    @property
    def profile(self) -> ApplicationProfile:
        """The application profile this evaluator predicts for."""
        return self._profile

    @property
    def options(self) -> EvaluationOptions:
        """The evaluation options used when no override is passed."""
        return self._options

    @property
    def latency_model(self) -> LatencyModel:
        """The calibrated latency model this evaluator reads."""
        return self._latency

    @property
    def nodes(self) -> MappingABC[str, Node]:
        """The static node table of the cluster."""
        return self._nodes

    @property
    def snapshot(self) -> SystemSnapshot:
        """The resource-availability snapshot evaluations are served from."""
        return self._snapshot

    @property
    def evaluations(self) -> int:
        """Number of evaluations served (scheduler cost metric).

        Counts both reference :meth:`predict` calls and fast-path
        evaluations served by :meth:`incremental` evaluators.
        """
        return self._evaluations

    def record_evaluations(self, count: int = 1) -> None:
        """Count *count* externally served evaluations (fast path)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._evaluations += count

    def with_snapshot(self, snapshot: SystemSnapshot) -> "MappingEvaluator":
        """A copy bound to fresher monitoring data.

        The ``evaluations`` counter carries over: the copy continues the
        same scheduling request, so its cost metric must not reset on a
        monitoring refresh.
        """
        clone = MappingEvaluator(self._profile, self._latency, self._nodes, snapshot, self._options)
        clone._evaluations = self._evaluations
        return clone

    def with_profile(self, profile: ApplicationProfile) -> "MappingEvaluator":
        """A copy predicting for *profile* — one segment's, say (counter carries over)."""
        clone = MappingEvaluator(profile, self._latency, self._nodes, self._snapshot, self._options)
        clone._evaluations = self._evaluations
        return clone

    # -- fast path ------------------------------------------------------
    def fast_context(self, options: EvaluationOptions | None = None):
        """The cached :class:`~repro.core.fast_eval.EvaluationContext`.

        Contexts are cached per (options, snapshot fingerprint): a
        snapshot whose content changed — even in place — produces a new
        fingerprint and therefore a fresh context, so stale precomputed
        ACPU/latency tables can never serve an evaluation.  The snapshot
        is hashed per call unless :meth:`install_context` was given its
        digest.
        """
        from repro.core.fast_eval import EvaluationContext
        from repro.telemetry import get_registry

        opts = options if options is not None else self._options
        key = (opts, self._fingerprint or self._snapshot.fingerprint())
        context = self._fast_contexts.get(key)
        if context is None:
            if self._resolve is not None:
                context = self._resolve(opts)
                if context.profile is not self._profile:
                    raise ValueError("context was built for a different application profile")
            else:
                get_registry().counter(
                    "cbes_context_builds_total",
                    "EvaluationContext cache misses (fast-path precompute rebuilds).",
                ).inc()
                context = EvaluationContext(
                    self._profile, self._latency, self._nodes, self._snapshot, opts,
                    fingerprint=key[1],
                )
                # Keep one snapshot generation at a time: drop contexts
                # built from snapshots with a different fingerprint.
                stale = [k for k in self._fast_contexts if k[1] != key[1]]
                for k in stale:
                    del self._fast_contexts[k]
            self._fast_contexts[key] = context
        return context

    def install_context(
        self, resolve: Callable[[EvaluationOptions], object], fingerprint: str
    ) -> None:
        """Serve the fast path from contexts a service keeps across requests:
        ``resolve(options)`` returns one, on the first :meth:`fast_context`
        of those options (an NCS search's energy options as well as the
        evaluator's own), so a build it does is part of the search that
        needed it.  *fingerprint* is the digest of this evaluator's (frozen)
        snapshot, which the context was built from: no call hashes it again.
        """
        self._fingerprint = fingerprint
        self._resolve = resolve

    def incremental(self, options: EvaluationOptions | None = None):
        """A fresh :class:`~repro.core.fast_eval.IncrementalEvaluator`.

        The returned evaluator serves ``propose``/``commit``/``reject``
        delta evaluations against this evaluator's snapshot and counts
        every served evaluation into :attr:`evaluations`.
        """
        from repro.core.fast_eval import IncrementalEvaluator

        return IncrementalEvaluator(
            self.fast_context(options), on_evaluate=self.record_evaluations
        )

    # ------------------------------------------------------------------
    def predict(
        self, mapping: TaskMapping, *, options: EvaluationOptions | None = None
    ) -> MappingPrediction:
        """Predict the application's execution time under *mapping*.

        *options* overrides the evaluator's default term toggles for
        this one call (used e.g. by the NCS scheduler, which anneals on
        the computation-only energy but reports full predictions).
        """
        prof = self._profile
        if mapping.nprocs != prof.nprocs:
            raise InvalidMappingError(
                f"mapping places {mapping.nprocs} processes but profile has {prof.nprocs}"
            )
        for node_id in mapping.nodes_used():
            if node_id not in self._nodes:
                raise InvalidMappingError(f"mapping uses unknown node {node_id!r}")
        self._evaluations += 1
        opts = options if options is not None else self._options
        snapshot = self._snapshot
        per_node = mapping.procs_per_node()
        map_dict = mapping.as_dict()

        # ACPU per used node, accounting for co-mapped processes.
        acpu: dict[str, float] = {}
        for node_id, nprocs_here in per_node.items():
            acpu[node_id] = snapshot.acpu(node_id, nprocs_here) if opts.cpu_availability else 1.0

        def latency_fn(src: str, dst: str, size: float) -> float:
            # L_c of section 2, from the pair's components, in the one
            # association the kernel shares (fast_eval._fill_terms): the
            # endpoint terms, then the load-independent tail with the
            # NIC stretch folded into the slope.  L_0 is the same
            # expression read on an idle system (ACPU = 1, nic = 0).
            pc = self._latency.components(src, dst)
            acpu_src = acpu_dst = 1.0
            nic = 0.0
            if opts.load_adjusted_latency:
                # Membership check, not `or`: a fully loaded co-mapped
                # node can legitimately have acpu == 0.0 entries (falsy),
                # which must not be replaced by the colocation-unaware
                # snapshot value.
                acpu_src = check_fraction(
                    acpu[src] if src in acpu else snapshot.acpu(src), "acpu_src", closed_low=False
                )
                acpu_dst = check_fraction(
                    acpu[dst] if dst in acpu else snapshot.acpu(dst), "acpu_dst", closed_low=False
                )
                nic_src = check_fraction(snapshot.nic_load(src), "nic_src")
                nic_dst = check_fraction(snapshot.nic_load(dst), "nic_dst")
                nic = min(max(nic_src, nic_dst), 0.95)
            if size < 0:
                raise ValueError("size_bytes must be >= 0")
            return (
                pc.alpha_src / acpu_src
                + pc.alpha_dst / acpu_dst
                + (pc.alpha_net + size * (pc.beta * (1.0 / (1.0 - nic))))
            )

        predictions = []
        for proc in prof.processes:
            node = self._nodes[map_dict[proc.rank]]
            speed_j = node.speed_for(prof.arch_speed_ratios)
            speed_profile = prof.profile_speeds[proc.rank]
            # Eq. 5, left to right: X_i * Speed_profile / Speed_j / ACPU_j.
            r_i = proc.compute_time * speed_profile / speed_j / acpu[node.node_id]
            if opts.communication:
                theta_m = theta(proc, map_dict, latency_fn)
                c_i = theta_m * (proc.lam if opts.use_lambda else 1.0)
            else:
                c_i = 0.0
            predictions.append(
                ProcessPrediction(
                    rank=proc.rank,
                    node_id=node.node_id,
                    computation=r_i,
                    communication=c_i,
                )
            )
        return MappingPrediction(mapping=mapping, processes=tuple(predictions))

    def execution_time(
        self, mapping: TaskMapping, *, options: EvaluationOptions | None = None
    ) -> float:
        """Shortcut: just ``S_M`` (the SA energy function)."""
        return self.predict(mapping, options=options).execution_time

    def compare(self, mappings: list[TaskMapping]) -> list[MappingPrediction]:
        """Evaluate several candidate mappings, best (fastest) first.

        This is the core module's *mapping comparison* request: the
        client hands in candidate mappings, the service returns their
        predicted execution times in increasing order.
        """
        if not mappings:
            raise InvalidMappingError("compare() requires at least one mapping")
        results = [self.predict(m) for m in mappings]
        return sorted(results, key=lambda p: p.execution_time)

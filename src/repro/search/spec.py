"""Self-contained search problem descriptions for worker processes.

The parallel portfolio runs SA restarts and GA islands in separate
processes.  A worker cannot share the master's
:class:`~repro.core.evaluation.MappingEvaluator` (it is full of live
caches), so instead it receives a :class:`SearchSpec` — the minimal
picklable closure of one search problem: the application profile, the
calibrated latency model, the static node table, one frozen resource
snapshot, the candidate pool, and the energy configuration.  From that a
worker rebuilds its own :class:`~repro.core.fast_eval.EvaluationContext`
(cheaper than shipping memoized latency tables, and byte-identical in
arithmetic to the master's, which is what makes the deterministic
best-of reduction possible).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field

from repro.core.evaluation import EvaluationOptions, MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.monitoring.snapshot import SystemSnapshot
from repro.profiling.profile import ApplicationProfile
from repro.schedulers.base import MappingConstraint

__all__ = ["SearchSpec", "greedy_mapping"]


@dataclass(frozen=True)
class SearchSpec:
    """Everything a worker needs to evaluate mappings for one search.

    All fields are plain data (or picklable callables): the spec must
    survive a trip through :mod:`pickle` into a fresh worker process.
    """

    profile: ApplicationProfile
    latency_model: object  # repro.cluster.latency.LatencyModel
    nodes: dict  # node id -> repro.cluster.node.Node
    snapshot: SystemSnapshot
    pool: tuple[str, ...]
    #: The *energy* options the search anneals on (already resolved —
    #: never ``None``; e.g. NCS drops the communication term here).
    options: EvaluationOptions = field(default_factory=EvaluationOptions)
    #: Optional feasibility predicate.  Must be picklable (a module-level
    #: function, not a lambda) when the search runs with ``parallel > 1``.
    constraint: MappingConstraint | None = None

    @classmethod
    def from_evaluator(
        cls,
        evaluator: MappingEvaluator,
        pool: list[str] | tuple[str, ...],
        *,
        options: EvaluationOptions | None = None,
        constraint: MappingConstraint | None = None,
    ) -> "SearchSpec":
        """Snapshot one evaluator's inputs into a shippable spec.

        ``options=None`` resolves to the evaluator's own options, exactly
        like :meth:`MappingEvaluator.predict` treats a ``None`` override.
        """
        return cls(
            profile=evaluator.profile,
            latency_model=evaluator.latency_model,
            nodes=dict(evaluator.nodes),
            snapshot=evaluator.snapshot.freeze(),
            pool=tuple(pool),
            options=options if options is not None else evaluator.options,
            constraint=constraint,
        )

    def fingerprint(self) -> str:
        """Stable content digest identifying this search problem.

        Two specs share a fingerprint exactly when a worker-side
        :class:`~repro.search.worker.TaskRunner` built for one is valid
        for the other — same profile, latency model, node table, pool,
        energy options, constraint, and *snapshot content*.  The snapshot
        enters through its own :meth:`SystemSnapshot.fingerprint` rather
        than its pickle bytes, so a refreshed-but-identical cluster state
        still keys the same cache entry while any availability change
        produces a new one.  Memoized (the dataclass is frozen, so the
        inputs cannot drift after the first call).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.snapshot.fingerprint().encode("ascii"))
        digest.update(
            pickle.dumps(
                (
                    self.profile,
                    self.latency_model,
                    self.nodes,
                    self.pool,
                    self.options,
                    self.constraint,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        value = digest.hexdigest()
        object.__setattr__(self, "_fingerprint", value)
        return value

    def build_evaluator(self) -> MappingEvaluator:
        """A fresh reference evaluator: the oracle for worker results."""
        return MappingEvaluator(
            self.profile, self.latency_model, self.nodes, self.snapshot, self.options
        )

    def feasible(self, mapping: TaskMapping) -> bool:
        return self.constraint is None or self.constraint(mapping)

    def ensure_picklable(self) -> None:
        """Fail fast, with a pointed message, before a pool ever spawns."""
        try:
            pickle.dumps(self)
        except Exception as exc:
            raise ValueError(
                "search spec cannot be pickled for worker processes "
                f"({type(exc).__name__}: {exc}); constraints must be module-level "
                "functions, not lambdas or closures, when parallel > 1"
            ) from exc


def greedy_mapping(spec: SearchSpec) -> TaskMapping | None:
    """Fastest-available-nodes construction, if it is feasible.

    The same ranking the CS scheduler seeds its first restart with:
    nodes ordered by profiled speed times current CPU availability.
    """
    profile = spec.profile
    ranked = sorted(
        spec.pool,
        key=lambda nid: (
            -spec.nodes[nid].speed_for(profile.arch_speed_ratios) * spec.snapshot.acpu(nid),
            nid,
        ),
    )
    mapping = TaskMapping(ranked[: profile.nprocs])
    return mapping if spec.feasible(mapping) else None

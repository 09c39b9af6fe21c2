"""Remapping cost/benefit decisions (paper section 2 and future work).

CBES is designed so that *"if system conditions, with regard to a
running application, change, there should be the capability of
generating a new mapping ... taking into account the task remapping
costs."*  The advisor implements that calculus: given how much of the
application remains, the predicted remaining time under the current and
the candidate mapping, and the cost of moving the tasks, it recommends
whether to remap.

This is the *flat-cost* advisor, the default of
:class:`~repro.core.runtime.RuntimeScheduler`; the online remapping loop
with the topology-aware :class:`~repro.remap.cost.MigrationCostModel`
lives in :class:`~repro.remap.remapper.Remapper`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping

__all__ = ["RemapCostModel", "RemapDecision", "RemapAdvisor"]


@dataclass(frozen=True)
class RemapCostModel:
    """Flat cost of migrating application tasks between nodes.

    ``fixed_s`` covers coordination (quiesce, barrier, restart);
    ``per_task_s`` covers checkpoint + transfer + restore of one task's
    state, charged once per task whose assigned node changes.  The
    :class:`~repro.remap.cost.MigrationCostModel` replaces the flat
    ``per_task_s`` constant with the actual checkpoint-over-link
    transfer time; this model remains the simple baseline.
    """

    fixed_s: float = 1.0
    per_task_s: float = 0.5

    def __post_init__(self) -> None:
        if self.fixed_s < 0 or self.per_task_s < 0:
            raise ValueError("remap costs must be >= 0")

    def cost(self, current: TaskMapping, candidate: TaskMapping) -> float:
        """Migration cost of switching from *current* to *candidate*."""
        if current.nprocs != candidate.nprocs:
            raise ValueError("mappings must place the same number of processes")
        moved = sum(
            1 for r in range(current.nprocs) if current.node_of(r) != candidate.node_of(r)
        )
        if moved == 0:
            return 0.0
        return self.fixed_s + self.per_task_s * moved


@dataclass(frozen=True)
class RemapDecision:
    """Outcome of a remapping evaluation."""

    remap: bool
    current_remaining_s: float
    candidate_remaining_s: float
    migration_cost_s: float
    candidate: TaskMapping

    @property
    def benefit_s(self) -> float:
        """Net time saved by remapping (can be negative)."""
        return self.current_remaining_s - (self.candidate_remaining_s + self.migration_cost_s)


class RemapAdvisor:
    """Decides whether a running application should be remapped."""

    def __init__(self, cost_model: RemapCostModel | None = None):
        self._costs = cost_model or RemapCostModel()

    def evaluate(
        self,
        evaluator: MappingEvaluator,
        current: TaskMapping,
        candidate: TaskMapping,
        *,
        fraction_remaining: float,
    ) -> RemapDecision:
        """Compare finishing on *current* vs migrating to *candidate*.

        ``fraction_remaining`` is the share of the application's work
        still to be done (application monitors report it; 1.0 means the
        run just started).  The evaluator must carry a *fresh* snapshot:
        the whole point of remapping is reacting to changed conditions.
        """
        if not 0.0 < fraction_remaining <= 1.0:
            raise ValueError("fraction_remaining must be in (0, 1]")
        stay = evaluator.execution_time(current) * fraction_remaining
        move = evaluator.execution_time(candidate) * fraction_remaining
        cost = self._costs.cost(current, candidate)
        return RemapDecision(
            remap=move + cost < stay,
            current_remaining_s=stay,
            candidate_remaining_s=move,
            migration_cost_s=cost,
            candidate=candidate,
        )

"""Remap plans: the deterministic output of one remapping evaluation.

A :class:`RemapPlan` is everything the daemon records (and a client
needs) about one cost/benefit verdict: the mapping diff as explicit
per-rank moves, the topology-aware migration cost of each move, the
predicted remaining times, and the decision under the rule

    ``remap  <=>  predicted_savings > migration_cost * safety_factor``.

Plans are plain frozen data built from deterministic inputs, so two
evaluations of the same situation — at any search parallel degree —
produce byte-identical plans (asserted by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapping import TaskMapping

__all__ = ["RankMove", "RemapPlan"]


@dataclass(frozen=True)
class RankMove:
    """One rank's migration: checkpoint shipped over the src->dst link."""

    rank: int
    source: str
    destination: str
    checkpoint_bytes: float
    #: Transfer seconds over the actual source->destination link (load
    #: adjusted), excluding the plan-wide quiesce/restart fixed cost.
    seconds: float

    def to_dict(self) -> dict:
        """Plain-JSON form (stable key order via sorted dumps)."""
        return {
            "rank": self.rank,
            "source": self.source,
            "destination": self.destination,
            "checkpoint_bytes": self.checkpoint_bytes,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class RemapPlan:
    """Outcome of one online remapping evaluation."""

    remap: bool
    current: TaskMapping
    candidate: TaskMapping
    #: Per-rank migrations in rank order (empty when the candidate is
    #: the current mapping; migration cost is then exactly 0.0).
    moves: tuple[RankMove, ...]
    current_remaining_s: float
    candidate_remaining_s: float
    migration_cost_s: float
    safety_factor: float
    #: Mapping evaluations spent producing this plan (search + scoring).
    evaluations: int = 0

    @property
    def savings_s(self) -> float:
        """Predicted remaining time saved by switching (cost not charged)."""
        return self.current_remaining_s - self.candidate_remaining_s

    @property
    def net_benefit_s(self) -> float:
        """Savings minus the (uninflated) migration cost; can be negative."""
        return self.savings_s - self.migration_cost_s

    def to_dict(self) -> dict:
        """Plain-JSON document (the daemon's decision record body)."""
        return {
            "remap": self.remap,
            "current": list(self.current.as_tuple()),
            "candidate": list(self.candidate.as_tuple()),
            "moves": [m.to_dict() for m in self.moves],
            "current_remaining_s": self.current_remaining_s,
            "candidate_remaining_s": self.candidate_remaining_s,
            "migration_cost_s": self.migration_cost_s,
            "savings_s": self.savings_s,
            "net_benefit_s": self.net_benefit_s,
            "safety_factor": self.safety_factor,
            "evaluations": self.evaluations,
        }

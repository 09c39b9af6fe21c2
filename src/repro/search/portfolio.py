"""Deterministic reduction of a batch of SA restarts, and the one result type.

A caller runs its restarts with :func:`repro.search.pool.run_tasks` and
hands the outcomes to :func:`reduce_outcomes`: a deterministic best-of
where ties on energy break by task index, outcomes are ordered by task
index whatever order they finished in, and every task owns a seed
substream — so ``workers=1`` and ``workers=N`` produce byte-identical
mappings for the same master seed.  The island GA
(:mod:`repro.search.islands`) reduces its islands into the same
:class:`SearchResult`.

Per-task deadlines (the scheduler's ``time_budget``) are the one thing
that can make two runs differ: a chain that hits its deadline returns
its best-so-far.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapping import TaskMapping
from repro.search.worker import IslandState, SaOutcome

__all__ = ["SearchResult", "reduce_outcomes"]


@dataclass(frozen=True)
class SearchResult:
    """Reduced outcome of one search run."""

    mapping: TaskMapping
    energy: float
    #: Per-task best-energy trajectories concatenated in task order
    #: (stable across parallel degrees, unlike completion order).
    history: list[float]
    evaluations: int
    #: The SA restarts' outcomes or the final island states, in task order.
    outcomes: tuple[SaOutcome, ...] | tuple[IslandState, ...]


def reduce_outcomes(outcomes: list[SaOutcome], direction: str) -> SearchResult:
    """Deterministic best-of: best energy, ties broken by task index."""
    sign = 1.0 if direction == "minimize" else -1.0
    ordered = sorted(outcomes, key=lambda o: o.index)
    best = min(ordered, key=lambda o: (sign * o.energy, o.index))
    history: list[float] = []
    for outcome in ordered:
        history.extend(outcome.history)
    return SearchResult(
        mapping=best.mapping,
        energy=best.energy,
        history=history,
        evaluations=sum(o.evaluations for o in ordered),
        outcomes=tuple(ordered),
    )

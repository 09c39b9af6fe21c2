"""Portfolio of SA restarts with deterministic reduction.

The portfolio runs independent SA restarts (GA island epochs go through
:mod:`repro.search.islands`) and reduces the outcomes with a
deterministic best-of: ties on energy break by task index, outcomes are
ordered by task index whatever order they finished in, and every task
owns a seed substream — so ``workers=1`` and ``workers=N`` produce
byte-identical mappings for the same master seed.

Where the restarts run — inline or on the process-wide warm pool — is
:func:`repro.search.pool.run_tasks`' decision, not this module's.
Per-task deadlines (the scheduler's ``time_budget``) are the one thing
that can make two runs differ: a chain that hits its deadline returns
its best-so-far.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.search.pool import run_tasks
from repro.search.spec import SearchSpec
from repro.search.worker import SaOutcome, SaTask

__all__ = ["ParallelPortfolio", "PortfolioResult"]


@dataclass(frozen=True)
class PortfolioResult:
    """Reduced outcome of one portfolio run."""

    mapping: TaskMapping
    energy: float
    #: Per-restart best-energy trajectories concatenated in task order
    #: (stable across parallel degrees, unlike completion order).
    history: list[float]
    evaluations: int
    outcomes: tuple[SaOutcome, ...]


class ParallelPortfolio:
    """Runs a batch of SA restarts over one spec and reduces to the best."""

    def __init__(self, workers: int = 1, *, mp_context: str | None = None):
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
        self._workers = workers
        self._mp_context = mp_context

    @property
    def workers(self) -> int:
        return self._workers

    def run_sa(
        self,
        spec: SearchSpec,
        tasks: list[SaTask],
        *,
        direction: str = "minimize",
        evaluator: MappingEvaluator | None = None,
    ) -> PortfolioResult:
        """Execute *tasks* and reduce to the single best outcome.

        *evaluator* is the evaluator *spec* was taken from, if the
        caller has one: an inline run then uses its cached context
        instead of rebuilding one (see :func:`run_tasks`).
        """
        if not tasks:
            raise ValueError("portfolio needs at least one task")
        if direction not in ("minimize", "maximize"):
            raise ValueError("direction must be 'minimize' or 'maximize'")
        outcomes = run_tasks(
            spec, tasks, workers=self._workers, evaluator=evaluator, mp_context=self._mp_context
        )
        return reduce_outcomes(outcomes, direction)


def reduce_outcomes(outcomes: list[SaOutcome], direction: str) -> PortfolioResult:
    """Deterministic best-of: best energy, ties broken by task index."""
    sign = 1.0 if direction == "minimize" else -1.0
    ordered = sorted(outcomes, key=lambda o: o.index)
    best = min(ordered, key=lambda o: (sign * o.energy, o.index))
    history: list[float] = []
    for outcome in ordered:
        history.extend(outcome.history)
    return PortfolioResult(
        mapping=best.mapping,
        energy=best.energy,
        history=history,
        evaluations=sum(o.evaluations for o in ordered),
        outcomes=tuple(ordered),
    )

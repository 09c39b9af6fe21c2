"""Portfolio of search restarts with deterministic reduction.

The portfolio runs independent SA restarts and candidate scans (GA
island epochs go through :mod:`repro.search.islands`) and reduces the
outcomes with a deterministic best-of: ties on energy break by task
index, outcomes are ordered by task index whatever order they finished
in, and every task owns a seed substream — so ``workers=1`` and
``workers=N`` produce byte-identical mappings for the same master seed.

``workers=1`` runs a :class:`~repro.search.worker.TaskRunner` inline;
``workers > 1`` runs the very same runner on the process-wide warm pool
(:mod:`repro.search.pool`), whose executor persists across calls and
whose workers cache their runner per spec fingerprint.  Per-task
deadlines (the scheduler's ``time_budget``) are the one thing that can
make two runs differ: a chain that hits its deadline returns its
best-so-far.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.core.fast_eval import EvaluationContext
from repro.core.mapping import TaskMapping
from repro.search.pool import default_start_method, effective_workers, get_pool
from repro.search.spec import SearchSpec
from repro.search.worker import SaOutcome, SaTask, ScanTask, TaskRunner

__all__ = [
    "ParallelPortfolio",
    "PortfolioResult",
    "ScanResult",
    "default_start_method",
    "effective_workers",
]


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


@dataclass(frozen=True)
class ScanResult:
    """Energies for a candidate scan, in candidate submission order."""

    energies: list[float]
    evaluations: int
    #: Index of the best (lowest-energy) candidate; ties by position.
    best_index: int


class ParallelPortfolio:
    """Runs a batch of search tasks over one spec, inline or on the warm pool."""

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
        context: EvaluationContext | None = None,
    ) -> PortfolioResult:
        """Execute *tasks* and reduce to the single best outcome.

        *context* is an optional pre-built evaluation context for the
        inline (``workers == 1``) path, so a scheduler can hand over its
        evaluator's cached context instead of rebuilding one; it is
        ignored when a pool is used (workers build their own).
        """
        if not tasks:
            raise ValueError("portfolio needs at least one task")
        if direction not in ("minimize", "maximize"):
            raise ValueError("direction must be 'minimize' or 'maximize'")
        nworkers = min(self._workers, len(tasks))
        if nworkers <= 1:
            runner = TaskRunner(spec, context=context)
            outcomes = [runner.run_sa(task) for task in tasks]
        else:
            outcomes = get_pool(self._mp_context).run(spec, "sa", tasks, workers=nworkers)
        return reduce_outcomes(outcomes, direction)

    def run_scan(
        self,
        spec: SearchSpec,
        candidates: list[TaskMapping],
        *,
        context: EvaluationContext | None = None,
    ) -> ScanResult:
        """Score *candidates* as batched sweeps, preserving order.

        The inline path submits the whole population as one
        ``evaluate_many`` call; with a pool the candidates are split into
        one contiguous slice per worker, each scored as a single batch,
        and reassembled in slice order — so the energies (and the
        deterministic ``best_index``) are identical at every parallel
        degree.
        """
        if not candidates:
            raise ValueError("scan needs at least one candidate mapping")
        nworkers = min(self._workers, len(candidates))
        if nworkers <= 1:
            runner = TaskRunner(spec, context=context)
            outcomes = [runner.run_scan(ScanTask(0, tuple(candidates)))]
        else:
            step = (len(candidates) + nworkers - 1) // nworkers
            tasks = [
                ScanTask(i, tuple(candidates[i * step : (i + 1) * step]))
                for i in range(nworkers)
                if candidates[i * step : (i + 1) * step]
            ]
            outcomes = get_pool(self._mp_context).run(spec, "scan", tasks, workers=nworkers)
        ordered = sorted(outcomes, key=lambda o: o.index)
        registry = telemetry.get_registry()
        for outcome in ordered:
            if outcome.metrics is not None:
                registry.apply_delta(outcome.metrics)
        energies = [e for outcome in ordered for e in outcome.energies]
        best_index = min(range(len(energies)), key=lambda i: (energies[i], i))
        return ScanResult(
            energies=energies,
            evaluations=sum(o.evaluations for o in ordered),
            best_index=best_index,
        )


def reduce_outcomes(outcomes: list[SaOutcome], direction: str) -> PortfolioResult:
    """Deterministic best-of: best energy, ties broken by task index."""
    sign = 1.0 if direction == "minimize" else -1.0
    ordered = sorted(outcomes, key=lambda o: o.index)
    best = min(ordered, key=lambda o: (sign * o.energy, o.index))
    # Fold each task's telemetry into the ambient registry in task-index
    # order — deterministic regardless of worker count or finish order.
    registry = telemetry.get_registry()
    for outcome in ordered:
        if outcome.metrics is not None:
            registry.apply_delta(outcome.metrics)
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

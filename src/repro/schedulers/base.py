"""Scheduler interface and common plumbing.

A scheduler, in the paper's architecture, is an external *client* of the
CBES core: it proposes candidate mappings and uses the mapping
evaluation operation as its objective function.  All schedulers here
share the same contract: given an evaluator bound to an application and
a pool of candidate nodes, return the mapping they consider best, plus
bookkeeping (evaluation count, wall time) that reproduces the paper's
"approximate scheduler time" column.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro._rng import Rng
from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.telemetry import get_registry, get_tracer

__all__ = [
    "ScheduleResult",
    "Scheduler",
    "MappingConstraint",
    "random_mapping",
    "draw_initial_mapping",
]

#: Optional predicate restricting the feasible mapping set (e.g. "must
#: include at least one Intel node" for the paper's zone experiments).
MappingConstraint = Callable[[TaskMapping], bool]


@dataclass
class ScheduleResult:
    """Outcome of one scheduling request."""

    mapping: TaskMapping
    predicted_time: float
    evaluations: int
    wall_time_s: float
    scheduler: str
    #: Trajectory of best predicted time over evaluations (for studies).
    history: list[float] = field(default_factory=list)


class Scheduler(ABC):
    """Base class for CBES-attached schedulers.

    Every scheduler accepts the *execution* options of the parallel
    search engine (:mod:`repro.search`): ``parallel`` worker processes
    and an optional ``time_budget`` in seconds.  Schedulers that have
    nothing to parallelize (RS, greedy) accept and ignore them, so the
    registry, the daemon, and the CLI can set them uniformly.
    """

    #: Human-readable scheduler tag (CS / NCS / RS / ...).
    name: str = "scheduler"

    def __init__(
        self,
        *,
        constraint: MappingConstraint | None = None,
        parallel: int = 1,
        time_budget: float | None = None,
        mp_context: str | None = None,
    ):
        if not isinstance(parallel, int) or isinstance(parallel, bool) or parallel < 1:
            raise ValueError(f"parallel must be an integer >= 1, got {parallel!r}")
        if time_budget is not None:
            if not isinstance(time_budget, (int, float)) or isinstance(time_budget, bool):
                raise ValueError(f"time_budget must be a number of seconds, got {time_budget!r}")
            if time_budget <= 0:
                raise ValueError(f"time_budget must be > 0 seconds, got {time_budget!r}")
            time_budget = float(time_budget)
        self._constraint = constraint
        self._parallel = parallel
        self._time_budget = time_budget
        self._mp_context = mp_context

    @property
    def parallel(self) -> int:
        """How many worker processes the search may fan out over."""
        return self._parallel

    @property
    def time_budget(self) -> float | None:
        """Optional wall-clock budget (seconds) for one schedule() call."""
        return self._time_budget

    def _deadline(self) -> float | None:
        """The absolute monotonic deadline for a run starting now."""
        if self._time_budget is None:
            return None
        return time.monotonic() + self._time_budget

    def feasible(self, mapping: TaskMapping) -> bool:
        """Whether a mapping satisfies the attached constraint."""
        return self._constraint is None or self._constraint(mapping)

    def schedule(
        self, evaluator: MappingEvaluator, pool: Sequence[str], *, seed: int = 0
    ) -> ScheduleResult:
        """Pick a mapping for the evaluator's application from *pool*."""
        nprocs = evaluator.profile.nprocs
        pool = list(dict.fromkeys(pool))
        if len(pool) < nprocs:
            raise ValueError(
                f"pool of {len(pool)} nodes cannot host {nprocs} processes one-per-node"
            )
        start_evals = evaluator.evaluations
        started = time.perf_counter()
        with get_tracer().trace(
            "scheduler.run", scheduler=self.name, pool=len(pool), seed=seed
        ) as span:
            mapping, predicted, history = self._run(evaluator, pool, seed)
        result = ScheduleResult(
            mapping=mapping,
            predicted_time=predicted,
            evaluations=evaluator.evaluations - start_evals,
            wall_time_s=time.perf_counter() - started,
            scheduler=self.name,
            history=history,
        )
        span.set_attribute("evaluations", result.evaluations)
        span.set_attribute("predicted_time", result.predicted_time)
        registry = get_registry()
        registry.counter(
            "cbes_evaluations_total", "Mapping evaluations consumed by scheduling."
        ).inc(result.evaluations)
        registry.histogram(
            "cbes_schedule_seconds", "Wall time of one schedule() call.", ("scheduler",)
        ).observe(result.wall_time_s, scheduler=self.name)
        registry.gauge(
            "cbes_search_best_energy",
            "Best predicted execution time found by the last run.",
            ("scheduler",),
        ).set(result.predicted_time, scheduler=self.name)
        return result

    @abstractmethod
    def _run(
        self, evaluator: MappingEvaluator, pool: list[str], seed: int
    ) -> tuple[TaskMapping, float, list[float]]:
        """Scheduler-specific search.  Returns (mapping, energy, history)."""


def random_mapping(pool: Sequence[str], nprocs: int, rng: Rng) -> TaskMapping:
    """A uniform random one-process-per-node mapping over *pool*."""
    if len(pool) < nprocs:
        raise ValueError("pool smaller than process count")
    idx = rng.choice(len(pool), size=nprocs, replace=False)
    return TaskMapping([pool[int(i)] for i in idx])


def draw_initial_mapping(
    pool: Sequence[str], nprocs: int, rng: Rng, constraint: MappingConstraint | None = None
) -> TaskMapping:
    """A random feasible starting point (rejection sampling)."""
    for _ in range(10_000):
        mapping = random_mapping(pool, nprocs, rng)
        if constraint is None or constraint(mapping):
            return mapping
    raise RuntimeError(
        "could not draw a feasible mapping from the pool; "
        "the constraint may be unsatisfiable"
    )

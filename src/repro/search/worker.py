"""Per-process task execution: SA restarts and GA epochs.

A :class:`TaskRunner` is the unit of worker-side state: it builds its
own :class:`~repro.core.fast_eval.EvaluationContext` from the pickled
:class:`~repro.search.spec.SearchSpec` and executes search tasks
against it.  The master process runs the *same* runner inline when
``parallel == 1`` — identical code path, identical arithmetic, which is
what lets every search promise byte-identical results across parallel
degrees.  Either way the entry is :func:`repro.search.pool.run_tasks`
and the body is the one :meth:`TaskRunner.run`; its GA epoch is the
only GA generation loop, one-island GA included.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro._rng import Rng
from repro._util import spawn_rng
from repro.core.fast_eval import EvaluationContext, IncrementalEvaluator
from repro.core.mapping import TaskMapping
from repro.schedulers.annealing import AnnealingSchedule, anneal
from repro.schedulers.base import draw_initial_mapping
from repro.schedulers.genetic import GeneticParams, ga_generation
from repro.schedulers.moves import MoveGenerator
from repro.search.spec import SearchSpec, greedy_mapping

__all__ = ["SaTask", "SaOutcome", "IslandState", "GaEpochTask", "TaskRunner"]


@dataclass(frozen=True)
class SaTask:
    """One simulated-annealing restart, fully specified.

    ``rng_parts`` feeds :func:`repro._util.spawn_rng` together with
    ``seed``: every restart gets its own substream, independent of which
    process runs it and of how many restarts run beside it.
    """

    index: int
    seed: int
    rng_parts: tuple
    schedule: AnnealingSchedule = AnnealingSchedule()
    swap_probability: float = 0.5
    greedy_start: bool = False
    #: When > 0, draw this many random candidate starts, score each on
    #: the scalar kernel, and start SA from the best (the greedy start,
    #: when requested and feasible, still wins).
    seed_scan: int = 0
    direction: str = "minimize"
    #: Explicit start mapping (warm start).  Takes precedence over
    #: ``greedy_start`` and ``seed_scan``; the remapper uses it to
    #: anneal outward from a running application's current mapping.
    start: TaskMapping | None = None
    #: Absolute ``time.monotonic()`` deadline (CLOCK_MONOTONIC is
    #: system-wide on the platforms we support, so the instant computed
    #: by the master is meaningful inside a worker).
    deadline: float | None = None


@dataclass(frozen=True)
class SaOutcome:
    """What one restart reports back to the reducer."""

    index: int
    mapping: TaskMapping
    energy: float
    history: tuple[float, ...]
    evaluations: int


@dataclass
class IslandState:
    """One GA island's full evolutionary state between epochs.

    The state round-trips master → worker → master every epoch; the RNG
    generator pickles with its position, so an island's trajectory does
    not depend on which worker process hosts which epoch.
    """

    index: int
    rng: Rng
    population: list[TaskMapping] | None = None
    fitness: list[float] | None = None
    history: list[float] = field(default_factory=list)
    evaluations: int = 0


@dataclass(frozen=True)
class GaEpochTask:
    """Evolve one island for *generations* generations."""

    state: IslandState
    params: GeneticParams
    generations: int
    deadline: float | None = None
    #: Stop after this many generations without improvement.  Only a
    #: one-island run sets it: islands must stay in lockstep.
    patience: int | None = None


class TaskRunner:
    """Executes search tasks against one spec, counting evaluations."""

    def __init__(self, spec: SearchSpec, *, context: EvaluationContext | None = None):
        self.spec = spec
        self.count = 0
        if context is None:
            context = EvaluationContext(
                spec.profile, spec.latency_model, spec.nodes, spec.snapshot, spec.options
            )
        #: The energy every task evaluates with; counts into ``count``.
        self._energy = IncrementalEvaluator(context, on_evaluate=self._tick)

    def _tick(self) -> None:
        self.count += 1

    def _draw(self, rng: Rng) -> TaskMapping:
        spec = self.spec
        return draw_initial_mapping(spec.pool, spec.profile.nprocs, rng, spec.constraint)

    def run(self, task: SaTask | GaEpochTask) -> SaOutcome | IslandState:
        """Run one task; its outcome.

        The task counts into the ambient registry and records its
        ``search.task`` span under the open one, which
        :func:`repro.search.pool.run_tasks` makes private per task.
        """
        if isinstance(task, SaTask):
            body, kind = self._run_sa, "sa-restart"
        else:
            body, kind = self._run_ga_epoch, "ga-epoch"
        registry = telemetry.get_registry()
        seconds = registry.histogram(
            "cbes_search_task_seconds", "Wall time of one search task.", ("kind",)
        )
        with telemetry.stage("search.task", seconds, kind=kind, pid=os.getpid()):
            outcome = body(task)
        registry.counter(
            "cbes_search_tasks_total", "Search tasks executed by runners.", ("kind",)
        ).inc(kind=kind)
        return outcome

    # -- SA restarts ----------------------------------------------------
    def _run_sa(self, task: SaTask) -> SaOutcome:
        start_count = self.count
        rng = spawn_rng(task.seed, *task.rng_parts)
        moves = MoveGenerator(list(self.spec.pool), swap_probability=task.swap_probability)
        start = None
        if task.start is not None and self.spec.feasible(task.start):
            # Warm start: anneal outward from an explicitly given mapping
            # (e.g. a running application's current placement).
            start = task.start
        if start is None and task.greedy_start:
            start = greedy_mapping(self.spec)
        if start is None and task.seed_scan > 0:
            # Restart seeding: score every candidate start and begin from
            # the best (ties by draw order keep this deterministic).  One
            # at a time on the scalar kernel, as the anneal itself: a
            # handful of mappings does not pay for numpy's import.
            candidates = [self._draw(rng) for _ in range(task.seed_scan)]
            energies = [self._energy(candidate) for candidate in candidates]
            sign = 1.0 if task.direction == "minimize" else -1.0
            best = min(range(len(candidates)), key=lambda i: (sign * energies[i], i))
            start = candidates[best]
        if start is None:
            start = self._draw(rng)
        best, energy_value, history = anneal(
            self._energy,
            start,
            moves,
            rng,
            schedule=task.schedule,
            feasible=self.spec.constraint,
            direction=task.direction,
            deadline=task.deadline,
        )
        return SaOutcome(
            index=task.index,
            mapping=best,
            energy=energy_value,
            history=tuple(history),
            evaluations=self.count - start_count,
        )

    # -- GA island epochs -----------------------------------------------
    def _run_ga_epoch(self, task: GaEpochTask) -> IslandState:
        state = task.state
        p = task.params
        start_count = self.count
        rng = state.rng
        moves = MoveGenerator(list(self.spec.pool))
        pool = list(self.spec.pool)
        history = list(state.history)
        if state.population is None:
            population = [self._draw(rng) for _ in range(p.population)]
            fitness = self._energy.many(population)
            history.append(min(fitness))
        else:
            population = list(state.population)
            fitness = list(state.fitness)
        generations_done = 0
        stale = 0
        for _ in range(task.generations):
            if task.deadline is not None and time.monotonic() >= task.deadline:
                break
            population, fitness = ga_generation(
                population, fitness, self._energy, p, moves, pool, rng, self.spec.feasible
            )
            best_now = min(fitness)
            stale = 0 if best_now < history[-1] - 1e-12 else stale + 1
            history.append(min(best_now, history[-1]))
            generations_done += 1
            if task.patience is not None and stale >= task.patience:
                break
        telemetry.get_registry().counter(
            "cbes_ga_generations_total", "GA generations evolved across all islands."
        ).inc(generations_done)
        return IslandState(
            index=state.index,
            rng=rng,
            population=population,
            fitness=fitness,
            history=history,
            evaluations=state.evaluations + (self.count - start_count),
        )

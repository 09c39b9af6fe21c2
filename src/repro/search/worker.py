"""Per-process task execution for the parallel search portfolio.

A :class:`TaskRunner` is the unit of worker-side state: it builds its
own :class:`~repro.core.fast_eval.EvaluationContext` from the pickled
:class:`~repro.search.spec.SearchSpec` and executes search tasks
against it.  The master process runs the *same* runner inline when
``parallel == 1`` — identical code path, identical arithmetic, which is
what lets the portfolio promise byte-identical results across parallel
degrees.  Either way the entry is :func:`repro.search.pool.run_tasks`
and the body is the one :meth:`TaskRunner.run`.
"""

from __future__ import annotations

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
from repro.telemetry import MetricsDelta, MetricsRegistry

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
    #: When > 0, draw this many random candidate starts, score them as
    #: one batched ``evaluate_many`` sweep, and start SA from the best
    #: (the greedy start, when requested and feasible, still wins).
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

    def run(
        self, task: SaTask | GaEpochTask, *, telemetry_enabled: bool | None = None
    ) -> tuple[SaOutcome | IslandState, MetricsDelta | None]:
        """Run one task; the outcome and the telemetry it recorded.

        The delta is ``None`` when telemetry is off.  Pool workers pass
        the master's setting with every task (the ambient registry does
        not cross process boundaries); inline it is the ambient one.
        """
        if isinstance(task, SaTask):
            body, kind = self._run_sa, "sa-restart"
        else:
            body, kind = self._run_ga_epoch, "ga-epoch"
        if telemetry_enabled is None:
            telemetry_enabled = telemetry.enabled()
        if not telemetry_enabled:
            return body(task), None
        local = MetricsRegistry()
        started = time.perf_counter()
        with telemetry.use_registry(local):
            outcome = body(task)
            seconds = time.perf_counter() - started
            local.counter(
                "cbes_search_tasks_total", "Search tasks executed by runners.", ("kind",)
            ).inc(kind=kind)
            local.histogram(
                "cbes_search_task_seconds", "Wall time of one search task.", ("kind",)
            ).observe(seconds, kind=kind)
        return outcome, local.collect_delta()

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
            # Batched restart seeding: score all candidate starts in one
            # evaluate_many sweep and begin from the best (ties by draw
            # order keep this deterministic).
            candidates = [self._draw(rng) for _ in range(task.seed_scan)]
            energies = self._energy.many(candidates)
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
        for _ in range(task.generations):
            if task.deadline is not None and time.monotonic() >= task.deadline:
                break
            population, fitness = ga_generation(
                population, fitness, self._energy, p, moves, pool, rng, self.spec.feasible
            )
            history.append(min(min(fitness), history[-1]))
            generations_done += 1
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

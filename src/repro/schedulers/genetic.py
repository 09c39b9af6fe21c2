"""GA — genetic-algorithm scheduler (the paper's future-work direction).

Section 8: *"We further intend to investigate the suitability of other
scheduling algorithms, e.g. genetic algorithms, for CBES-supported
scheduling."*  This implementation uses the same CBES energy function as
CS with a steady-state GA: tournament selection, uniform crossover with
duplicate repair (mappings must stay one-process-per-node), and the SA
move set as the mutation operator.

With ``islands > 1`` the GA runs as an island model instead: several
independent populations evolve in parallel worker processes and exchange
their elites along a ring every ``migration_interval`` generations (see
:mod:`repro.search.islands`).  The serial single-population path is
untouched when ``islands == 1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro._rng import Rng
from repro._util import spawn_rng
from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.schedulers.base import MappingConstraint, Scheduler, draw_initial_mapping
from repro.schedulers.moves import MoveGenerator
from repro.telemetry import get_registry

__all__ = ["GeneticParams", "GeneticScheduler", "ga_generation", "score_population"]


def score_population(fit, mappings: list[TaskMapping]) -> list[float]:
    """Score a whole population with one batched sweep when possible.

    Fitness objects advertising a ``many(mappings)`` method (the
    incremental evaluator backed by ``EvaluationContext.evaluate_many``)
    get the population as a single submission — one kernel dispatch
    instead of ``len(mappings)`` python loops.  Plain callables fall back
    to the element-wise loop; both paths return identical energies.
    """
    many = getattr(fit, "many", None)
    if many is not None:
        return many(mappings)
    return [fit(m) for m in mappings]


@dataclass(frozen=True)
class GeneticParams:
    """GA hyperparameters."""

    population: int = 24
    generations: int = 40
    tournament: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    elite: int = 2
    patience: int = 12

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 2 <= self.tournament <= self.population:
            raise ValueError("tournament size must be in [2, population]")
        for rate in (self.crossover_rate, self.mutation_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be in [0, 1]")
        if not 0 <= self.elite < self.population:
            raise ValueError("elite must be in [0, population)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def _tournament(
    population: list[TaskMapping],
    fitness: list[float],
    rng: Rng,
    size: int,
) -> TaskMapping:
    contenders = rng.choice(len(population), size=min(size, len(population)), replace=False)
    winner = min(contenders, key=lambda i: fitness[int(i)])
    return population[int(winner)]


def _crossover(a: TaskMapping, b: TaskMapping, pool: list[str], rng: Rng) -> TaskMapping:
    """Uniform crossover with duplicate repair.

    Genes are per-rank node choices; when the inherited gene is
    already used by an earlier rank, repair with the other parent's
    gene, then with a random unused pool node.
    """
    nprocs = a.nprocs
    used: set[str] = set()
    genes: list[str] = []
    take_a = [u < 0.5 for u in rng.random(nprocs)]
    for rank in range(nprocs):
        first = a.node_of(rank) if take_a[rank] else b.node_of(rank)
        second = b.node_of(rank) if take_a[rank] else a.node_of(rank)
        if first not in used:
            genes.append(first)
        elif second not in used:
            genes.append(second)
        else:
            free = [n for n in pool if n not in used]
            genes.append(free[int(rng.integers(len(free)))])
        used.add(genes[-1])
    return TaskMapping(genes)


def ga_generation(
    population: list[TaskMapping],
    fitness: list[float],
    fit,
    params: GeneticParams,
    moves: MoveGenerator,
    pool: list[str],
    rng: Rng,
    feasible,
) -> tuple[list[TaskMapping], list[float]]:
    """One steady-state GA generation: selection, variation, evaluation.

    Shared by the serial scheduler and the island-model workers so the
    two paths cannot drift; the RNG draw order here *is* the GA's
    deterministic contract.  The offspring are scored as one batched
    sweep (:func:`score_population`), so a whole generation costs one
    ``evaluate_many`` dispatch on the fast path.
    """
    order = sorted(range(len(fitness)), key=lambda i: (fitness[i], i))
    next_pop = [population[i] for i in order[: params.elite]]
    while len(next_pop) < params.population:
        parent_a = _tournament(population, fitness, rng, params.tournament)
        parent_b = _tournament(population, fitness, rng, params.tournament)
        if rng.random() < params.crossover_rate:
            child = _crossover(parent_a, parent_b, pool, rng)
        else:
            child = parent_a
        if rng.random() < params.mutation_rate:
            child = moves.neighbour(child, rng)
        if feasible(child):
            next_pop.append(child)
        else:
            next_pop.append(parent_a)
    new_fitness = score_population(fit, next_pop)
    return next_pop, new_fitness


class GeneticScheduler(Scheduler):
    """Steady-state GA over the mapping space with the CBES energy."""

    name = "GA"

    def __init__(
        self,
        *,
        params: GeneticParams = GeneticParams(),
        islands: int = 1,
        migration_interval: int = 5,
        migrants: int = 2,
        constraint: MappingConstraint | None = None,
        **execution,
    ):
        super().__init__(constraint=constraint, **execution)
        if islands < 1:
            raise ValueError("islands must be >= 1")
        if migration_interval < 1:
            raise ValueError("migration_interval must be >= 1")
        if not 0 < migrants < params.population:
            raise ValueError("migrants must be in (0, population)")
        self._params = params
        self._islands = islands
        self._migration_interval = migration_interval
        self._migrants = migrants

    def _run(self, evaluator: MappingEvaluator, pool: list[str], seed: int):
        if self._islands > 1:
            return self._run_islands(evaluator, pool, seed)
        p = self._params
        rng = spawn_rng(seed, self.name, tuple(pool), evaluator.profile.app_name)
        moves = MoveGenerator(pool)

        # Population fitness is the batched full evaluation (GA children
        # have no single base mapping to delta against).
        fit = evaluator.incremental()

        deadline = self._deadline()
        nprocs = evaluator.profile.nprocs
        population = [
            draw_initial_mapping(pool, nprocs, rng, self._constraint) for _ in range(p.population)
        ]
        fitness = score_population(fit, population)
        history = [min(fitness)]
        stale = 0
        generations_done = 0
        gen_started = time.perf_counter()
        for _ in range(p.generations):
            if deadline is not None and time.monotonic() >= deadline:
                break
            population, fitness = ga_generation(
                population, fitness, fit, p, moves, pool, rng, self.feasible
            )
            generations_done += 1
            best_now = min(fitness)
            if best_now < history[-1] - 1e-12:
                stale = 0
            else:
                stale += 1
            history.append(min(best_now, history[-1]))
            if stale >= p.patience:
                break
        # Batched: one registry touch per run, not per generation.
        registry = get_registry()
        registry.counter(
            "cbes_ga_generations_total", "GA generations evolved across all islands."
        ).inc(generations_done)
        if generations_done:
            registry.histogram(
                "cbes_ga_generation_seconds", "Mean wall time per serial GA generation."
            ).observe((time.perf_counter() - gen_started) / generations_done)
        best_idx = min(range(len(fitness)), key=lambda i: (fitness[i], i))
        return population[best_idx], fitness[best_idx], history

    def _run_islands(self, evaluator: MappingEvaluator, pool: list[str], seed: int):
        # Imported lazily: repro.search.worker imports ga_generation from
        # this module, so a top-level import here would be circular.
        from repro.search.islands import run_island_ga
        from repro.search.spec import SearchSpec

        spec = SearchSpec.from_evaluator(evaluator, pool, constraint=self._constraint)
        result = run_island_ga(
            spec,
            self._params,
            islands=self._islands,
            migration_interval=self._migration_interval,
            migrants=self._migrants,
            seed=seed,
            rng_parts=(self.name, tuple(pool), evaluator.profile.app_name),
            workers=self.parallel,
            evaluator=evaluator,
            mp_context=self._mp_context,
            deadline=self._deadline(),
        )
        evaluator.record_evaluations(result.evaluations)
        return result.mapping, result.energy, result.history

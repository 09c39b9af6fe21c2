"""Island-model GA: independent populations with ring migration.

Each island is a self-contained GA population with its own RNG
substream.  Islands evolve in *epochs* of ``migration_interval``
generations — inside an epoch an island never communicates, so epochs of
different islands run in different worker processes.  At each epoch
boundary the master performs a deterministic ring migration: island
``i``'s top ``migrants`` individuals (ties by member index) replace the
worst individuals of island ``(i + 1) % islands``, all computed from the
pre-migration snapshot so the exchange is order-independent.

Determinism: an island's trajectory is a pure function of its initial
RNG state and the migrants it receives, and migration is a pure function
of the epoch outputs — so the final result is identical whether epochs
run inline (``workers=1``) or across any number of processes.

The epoch barrier is the price of migration; unlike SA restarts there
*is* a synchronisation point per epoch.  The patience early-stop is
absent with two or more islands: they must stay in lockstep for
migration to be deterministic.  One island is the plain GA: it draws
from the GA's own stream, runs every generation as one epoch with no
migration, and stops after ``params.patience`` generations without
improvement.
"""

from __future__ import annotations

import math
import time

from repro._util import spawn_rng
from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.schedulers.genetic import GeneticParams
from repro.search.pool import run_tasks
from repro.search.portfolio import SearchResult
from repro.search.spec import SearchSpec
from repro.search.worker import GaEpochTask, IslandState

__all__ = ["run_island_ga"]


def run_island_ga(
    spec: SearchSpec,
    params: GeneticParams,
    *,
    islands: int,
    migration_interval: int,
    migrants: int,
    seed: int,
    rng_parts: tuple,
    workers: int = 1,
    evaluator: MappingEvaluator | None = None,
    mp_context: str | None = None,
    deadline: float | None = None,
) -> SearchResult:
    """Evolve *islands* populations with ring migration; reduce to best.

    One island is one epoch of every generation, no migration, and the
    ``params.patience`` early stop; ``migrants`` is then unused.  Every
    epoch is one :func:`~repro.search.pool.run_tasks` batch of
    *islands* tasks; *workers*, *evaluator* (the one *spec* was taken
    from, if any) and *mp_context* are handed to it as they are.
    """
    if islands < 1:
        raise ValueError("islands must be >= 1")
    if migration_interval < 1:
        raise ValueError("migration_interval must be >= 1")
    if islands > 1 and not 0 < migrants < params.population:
        raise ValueError("migrants must be in (0, population)")

    generations = params.generations
    if islands == 1:
        states = [IslandState(index=0, rng=spawn_rng(seed, *rng_parts))]
        migration_interval, patience = generations, params.patience
    else:
        states = [
            IslandState(index=i, rng=spawn_rng(seed, *rng_parts, "island", i))
            for i in range(islands)
        ]
        patience = None
    done = 0
    while done < generations:
        if deadline is not None and time.monotonic() >= deadline and done > 0:
            break
        span = min(migration_interval, generations - done)
        # The first epoch also initialises each population inside the
        # runner, so it uses each island's own RNG.
        tasks = [GaEpochTask(state, params, span, deadline, patience) for state in states]
        states = run_tasks(
            spec, tasks, workers=workers, evaluator=evaluator, mp_context=mp_context
        )
        done += span
        if done < generations:
            _ring_migrate(states, migrants)
    return _reduce(states)


def _ring_migrate(states: list[IslandState], migrants: int) -> None:
    """Deterministic elite exchange along the ring, in place.

    All migrant packs are taken from the pre-migration snapshot before
    any island is modified, so the result cannot depend on visit order.
    """
    packs = []
    for state in states:
        order = sorted(
            range(len(state.population)), key=lambda k: (state.fitness[k], k)
        )
        packs.append(
            [(state.population[k], state.fitness[k]) for k in order[:migrants]]
        )
    for i, state in enumerate(states):
        incoming = packs[(i - 1) % len(states)]
        worst_first = sorted(
            range(len(state.population)), key=lambda k: (-state.fitness[k], k)
        )
        for slot, (member, fitness) in zip(worst_first, incoming, strict=False):
            state.population[slot] = member
            state.fitness[slot] = fitness


def _reduce(states: list[IslandState]) -> SearchResult:
    """Best individual over all islands; ties by (island, member) index."""
    best_key = (math.inf, -1, -1)
    best_mapping: TaskMapping | None = None
    for state in states:
        for k, fitness in enumerate(state.fitness):
            key = (fitness, state.index, k)
            if key < best_key:
                best_key = key
                best_mapping = state.population[k]
    assert best_mapping is not None
    history: list[float] = []
    for state in states:
        history.extend(state.history)
    return SearchResult(
        mapping=best_mapping,
        energy=best_key[0],
        history=history,
        evaluations=sum(s.evaluations for s in states),
        outcomes=tuple(states),
    )

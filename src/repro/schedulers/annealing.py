"""Simulated-annealing search core (paper section 6, refs [19][20]).

A classic Metropolis annealer over the mapping space: the CBES mapping
evaluation formula (eq. 4) is the energy function, moves come from
:class:`~repro.schedulers.moves.MoveGenerator`, and a geometric cooling
schedule drives acceptance from near-random walk to strict descent.

``direction="maximize"`` searches for the *worst* mapping instead — that
is how the worst-vs-best scenario experiments (tables 1 and 3) obtain
their worst cases.

The loop speaks *moves* (:class:`~repro.schedulers.moves.Move`), not
mappings.  An energy advertising the incremental protocol of
:class:`repro.core.fast_eval.IncrementalEvaluator` — ``reset(mapping)``,
``propose_move(move)``, ``commit()``, ``reject()`` — is handed the move
itself, so a neighbour costs a delta evaluation of the ranks the move
touched and a rejected one never becomes a :class:`TaskMapping`.  A
plain callable energy (one full evaluation per neighbour) and a
*feasible* predicate get ``move.apply(current)``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro._rng import Rng
from repro.core.mapping import TaskMapping
from repro.schedulers.moves import MoveGenerator
from repro.telemetry import get_registry

__all__ = ["AnnealingSchedule", "anneal", "supports_incremental"]


def supports_incremental(energy: object) -> bool:
    """Whether *energy* advertises the propose_move/commit/reject protocol."""
    return all(
        callable(getattr(energy, attr, None))
        for attr in ("reset", "propose_move", "commit", "reject")
    )


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling parameters of the SA search."""

    #: Moves attempted at each temperature step.
    moves_per_temperature: int = 60
    #: Geometric cooling factor per temperature step.
    cooling: float = 0.92
    #: Number of temperature steps.
    steps: int = 40
    #: Initial acceptance probability targeted when auto-scaling T0.
    initial_acceptance: float = 0.6
    #: Stop early after this many consecutive steps without improvement.
    patience: int = 10

    def __post_init__(self) -> None:
        if self.moves_per_temperature < 1:
            raise ValueError("moves_per_temperature must be >= 1")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.initial_acceptance < 1.0:
            raise ValueError("initial_acceptance must be in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def anneal(
    energy: Callable[[TaskMapping], float],
    start: TaskMapping,
    moves: MoveGenerator,
    rng: Rng,
    *,
    schedule: AnnealingSchedule = AnnealingSchedule(),
    feasible: Callable[[TaskMapping], bool] | None = None,
    direction: str = "minimize",
    deadline: float | None = None,
) -> tuple[TaskMapping, float, list[float]]:
    """Run one simulated-annealing search.

    Returns ``(best_mapping, best_energy, history)`` where *history*
    records the best energy after each temperature step.  Infeasible
    neighbours (per *feasible*) are rejected outright.

    *deadline* is an absolute :func:`time.monotonic` instant; once it
    passes, the search stops at the next temperature-step boundary and
    returns its best-so-far (never an exception).
    """
    if direction not in ("minimize", "maximize"):
        raise ValueError("direction must be 'minimize' or 'maximize'")
    sign = 1.0 if direction == "minimize" else -1.0
    incremental = supports_incremental(energy)

    def cost(m: TaskMapping) -> float:
        return sign * energy(m)

    # The chain's state is an Occupancy advanced move by move; the
    # TaskMapping of the current point is kept only when something needs
    # a mapping per candidate (a constraint, a plain callable energy).
    materialise = feasible is not None or not incremental
    current = start if materialise else None
    current_cost = sign * energy.reset(start) if incremental else cost(start)
    best, best_cost = start, current_cost

    # Auto-scale T0 from an initial sample of move deltas so acceptance
    # starts near the configured level regardless of the energy scale.
    deltas = []
    occupancy = moves.occupancy(start)
    probe = start
    for _ in range(12):
        move = moves.draw(occupancy, rng)
        if materialise:
            candidate = move.apply(probe)
            if feasible is not None and not feasible(candidate):
                continue
            probe = candidate
        if incremental:
            deltas.append(abs(sign * energy.propose_move(move) - current_cost))
            energy.commit()  # walk the probe chain
        else:
            deltas.append(abs(cost(probe) - current_cost))
        occupancy.apply(move)
    if incremental:
        energy.reset(start)  # rewind the probe walk
    occupancy = moves.occupancy(start)
    mean_delta = math.fsum(deltas) / len(deltas) if deltas else abs(current_cost) * 0.01
    if mean_delta == 0.0:
        mean_delta = max(abs(current_cost), 1e-9) * 1e-3
    temperature = -mean_delta / math.log(schedule.initial_acceptance)

    history: list[float] = []
    stale = 0
    # Move outcomes are tallied in local ints and recorded in one batch
    # after the loop: the inner loop is the search hot path and must not
    # pay a registry call per move.
    accepted = rejected = 0
    for _ in range(schedule.steps):
        if deadline is not None and time.monotonic() >= deadline:
            break
        improved = False
        for _ in range(schedule.moves_per_temperature):
            move = moves.draw(occupancy, rng)
            if materialise:
                candidate = move.apply(current)
                if feasible is not None and not feasible(candidate):
                    continue
            candidate_cost = (
                sign * energy.propose_move(move) if incremental else cost(candidate)
            )
            delta = candidate_cost - current_cost
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                if incremental:
                    energy.commit()
                occupancy.apply(move)
                if materialise:
                    current = candidate
                current_cost = candidate_cost
                accepted += 1
                if current_cost < best_cost:
                    best = current if materialise else occupancy.mapping()
                    best_cost = current_cost
                    improved = True
            else:
                rejected += 1
                if incremental:
                    energy.reject()
        history.append(sign * best_cost)
        temperature *= schedule.cooling
        stale = 0 if improved else stale + 1
        if stale >= schedule.patience:
            break

    registry = get_registry()
    moves_total = registry.counter(
        "cbes_sa_moves_total", "SA move outcomes across all chains.", ("outcome",)
    )
    moves_total.inc(accepted, outcome="accepted")
    moves_total.inc(rejected, outcome="rejected")
    registry.counter(
        "cbes_sa_steps_total", "Completed SA temperature steps."
    ).inc(len(history))
    return best, sign * best_cost, history

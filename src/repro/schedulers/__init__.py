"""Schedulers: CS (SA, full cost), NCS (SA, no comm), RS, greedy, GA."""

from repro.schedulers.annealing import AnnealingSchedule, anneal
from repro.schedulers.base import MappingConstraint, ScheduleResult, Scheduler, random_mapping
from repro.schedulers.cs import CbesScheduler
from repro.schedulers.genetic import GeneticParams, GeneticScheduler
from repro.schedulers.greedy import GreedyScheduler
from repro.schedulers.moves import Move, MoveGenerator
from repro.schedulers.ncs import NoCommScheduler
from repro.schedulers.random_scheduler import RandomScheduler

__all__ = [
    "SCHEDULERS",
    "AnnealingSchedule",
    "CbesScheduler",
    "GeneticParams",
    "GeneticScheduler",
    "GreedyScheduler",
    "MappingConstraint",
    "Move",
    "MoveGenerator",
    "NoCommScheduler",
    "RandomScheduler",
    "ScheduleResult",
    "Scheduler",
    "anneal",
    "make_scheduler",
    "random_mapping",
]

#: Short tags (the paper's CS / NCS / RS plus the baselines) to
#: scheduler classes — the shared registry behind the CLI's
#: ``--scheduler`` option and the daemon's job payloads.
SCHEDULERS: dict[str, type[Scheduler]] = {
    "cs": CbesScheduler,
    "ncs": NoCommScheduler,
    "rs": RandomScheduler,
    "greedy": GreedyScheduler,
    "ga": GeneticScheduler,
}


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by registry tag (case-insensitive)."""
    try:
        cls = SCHEDULERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; valid: {', '.join(sorted(SCHEDULERS))}"
        ) from None
    return cls(**kwargs)

"""RS — the random reference scheduler of section 6.

Picks a mapping uniformly at random from the pool of nodes considered
equivalent.  It costs essentially nothing to run and is the paper's
point of reference for the maximum feasible overall speedup.
"""

from __future__ import annotations

from repro._util import spawn_rng
from repro.core.evaluation import MappingEvaluator
from repro.schedulers.base import MappingConstraint, Scheduler, draw_initial_mapping

__all__ = ["RandomScheduler"]


class RandomScheduler(Scheduler):
    """Uniform random mapping selection."""

    name = "RS"

    def __init__(self, *, constraint: MappingConstraint | None = None, **execution):
        super().__init__(constraint=constraint, **execution)

    def _run(self, evaluator: MappingEvaluator, pool: list[str], seed: int):
        profile = evaluator.profile
        rng = spawn_rng(seed, self.name, tuple(pool), profile.app_name)
        mapping = draw_initial_mapping(pool, profile.nprocs, rng, self._constraint)
        # RS itself never evaluates; the prediction is computed only so
        # the result is comparable with the other schedulers.
        predicted = evaluator.execution_time(mapping)
        return mapping, predicted, [predicted]

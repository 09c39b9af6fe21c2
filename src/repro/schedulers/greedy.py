"""A greedy constructive baseline scheduler.

Not part of the paper's comparison, but a natural baseline: pick the
fastest available nodes for the application (by measured speed and
current availability), then locally improve rank placement by predicted
time with first-improvement swaps.  Cheap, deterministic, and a good
sanity bound for the SA schedulers — SA should never lose to it badly.
"""

from __future__ import annotations

from repro._util import spawn_rng
from repro.core.evaluation import MappingEvaluator
from repro.schedulers.base import MappingConstraint, Scheduler, draw_initial_mapping
from repro.schedulers.moves import Move
from repro.search.spec import SearchSpec, greedy_mapping

__all__ = ["GreedyScheduler"]


class GreedyScheduler(Scheduler):
    """Fastest-nodes-first construction plus swap-based local search."""

    name = "GREEDY"

    def __init__(
        self,
        *,
        improvement_rounds: int = 2,
        constraint: MappingConstraint | None = None,
        **execution,
    ):
        super().__init__(constraint=constraint, **execution)
        if improvement_rounds < 0:
            raise ValueError("improvement_rounds must be >= 0")
        self._rounds = improvement_rounds

    def _run(self, evaluator: MappingEvaluator, pool: list[str], seed: int):
        profile = evaluator.profile
        nprocs = profile.nprocs
        mapping = greedy_mapping(
            SearchSpec.from_evaluator(evaluator, pool, constraint=self._constraint)
        )
        if mapping is None:
            # Fall back to a feasible random start if the pure-greedy
            # choice violates the constraint (e.g. zone mix rules).
            rng = spawn_rng(seed, self.name, tuple(pool), profile.app_name)
            mapping = draw_initial_mapping(pool, nprocs, rng, self._constraint)
        # Swap-based local search runs on the incremental delta path:
        # each candidate swap is handed to the evaluator as a move and
        # costs the two swapped ranks and their peers, not a full
        # re-evaluation; a mapping is built for a constraint check and
        # for an accepted swap only.
        fast = evaluator.incremental()
        best_time = fast.reset(mapping)
        history = [best_time]
        constraint = self._constraint
        for _ in range(self._rounds):
            improved = False
            for a in range(nprocs):
                for b in range(a + 1, nprocs):
                    move = Move.swap(a, b)
                    if constraint is not None and not constraint(move.apply(mapping)):
                        continue
                    t = fast.propose_move(move)
                    if t < best_time:
                        fast.commit()
                        mapping, best_time = move.apply(mapping), t
                        improved = True
                    else:
                        fast.reject()
            history.append(best_time)
            if not improved:
                break
        return mapping, best_time, history

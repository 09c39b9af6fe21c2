"""CS — the default CBES scheduler: simulated annealing on the full
cost function (computation + communication terms)."""

from __future__ import annotations

from repro.core.evaluation import EvaluationOptions, MappingEvaluator
from repro.schedulers.annealing import AnnealingSchedule
from repro.schedulers.base import MappingConstraint, Scheduler
from repro.search.portfolio import ParallelPortfolio
from repro.search.spec import SearchSpec
from repro.search.worker import SaTask

__all__ = ["CbesScheduler"]


class CbesScheduler(Scheduler):
    """The CS scheduler of section 6.

    The energy of a mapping is its predicted execution time ``S_M``
    (eq. 4) under the full CBES evaluation, so the annealer's minimum-
    energy configuration is the estimated fastest mapping.

    ``direction="maximize"`` turns it into the worst-case finder used by
    the worst-vs-best scenario tests.

    Restarts run as a portfolio (:mod:`repro.search`): each restart owns
    a seed substream, so results are independent of the restart count of
    the *other* restarts and of the ``parallel`` degree — ``parallel=1``
    and ``parallel=N`` return byte-identical mappings for one seed.
    """

    name = "CS"

    def __init__(
        self,
        *,
        schedule: AnnealingSchedule = AnnealingSchedule(),
        direction: str = "minimize",
        swap_probability: float = 0.5,
        restarts: int = 2,
        seed_scan: int = 8,
        constraint: MappingConstraint | None = None,
        **execution,
    ):
        super().__init__(constraint=constraint, **execution)
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        if seed_scan < 0:
            raise ValueError("seed_scan must be >= 0")
        if direction not in ("minimize", "maximize"):
            raise ValueError("direction must be 'minimize' or 'maximize'")
        self._schedule = schedule
        self._direction = direction
        self._swap_p = swap_probability
        self._restarts = restarts
        self._seed_scan = seed_scan

    #: Options the annealer's energy uses; None means the evaluator's own.
    energy_options: EvaluationOptions | None = None
    #: Seed the first restart with the fastest-nodes greedy construction.
    #: Disabled for NCS: its node choices within an equal-speed group
    #: must stay random, as the paper describes ("NCS behaves like RS
    #: when selecting from a set of nodes of equivalent speeds").
    use_greedy_start: bool = True

    def _run(self, evaluator: MappingEvaluator, pool: list[str], seed: int):
        options = (
            self.energy_options if self.energy_options is not None else evaluator.options
        )
        spec = SearchSpec.from_evaluator(
            evaluator,
            pool,
            options=options,
            constraint=self._constraint,
        )
        deadline = self._deadline()
        # Independent restarts guard against the two-basin landscapes a
        # federated cluster produces (a whole side can be a local
        # optimum); the first restart starts from the fastest-nodes
        # greedy construction, the rest from the best of a batched
        # seed scan over random candidates (one evaluate_many sweep).
        tasks = [
            SaTask(
                index=attempt,
                seed=seed,
                rng_parts=(
                    self.name,
                    tuple(pool),
                    evaluator.profile.app_name,
                    "restart",
                    attempt,
                ),
                schedule=self._schedule,
                swap_probability=self._swap_p,
                greedy_start=(
                    attempt == 0
                    and self._direction == "minimize"
                    and self.use_greedy_start
                ),
                seed_scan=self._seed_scan,
                direction=self._direction,
                deadline=deadline,
            )
            for attempt in range(self._restarts)
        ]
        portfolio = ParallelPortfolio(self.parallel, mp_context=self._mp_context)
        result = portfolio.run_sa(spec, tasks, direction=self._direction, evaluator=evaluator)
        evaluator.record_evaluations(result.evaluations)
        # Report the *full* predicted time for the chosen mapping even if
        # the search annealed on a reduced energy (NCS).
        predicted = evaluator.execution_time(result.mapping)
        return result.mapping, predicted, result.history

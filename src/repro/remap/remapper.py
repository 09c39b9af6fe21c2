"""The remapper: candidate search + the one cost/benefit verdict.

:meth:`Remapper.propose` is what a :class:`~repro.remap.loop.RemapLoop`
runs on a drift event.  Given an evaluator bound to the *fresh*
snapshot and the application's current mapping, it

1. searches for a candidate mapping with a batch of SA restarts
   (:func:`repro.search.run_tasks`) whose first restart is
   *warm-started from the current mapping* (the remaining restarts
   seed from greedy / random seed scans, so the search can both
   polish the incumbent and escape it),
2. scores current and candidate on the scalar kernel
   (:meth:`~repro.core.fast_eval.EvaluationContext.execution_time`),
3. prices the mapping diff with its cost model (by default the
   topology-aware :class:`~repro.remap.cost.MigrationCostModel`), and
4. applies the decision rule

       ``remap  <=>  predicted_savings > migration_cost * safety_factor``

returning everything as one deterministic :class:`~repro.remap.plan.
RemapPlan`.  Steps 2-4 are :meth:`Remapper.decide`, for callers that
bring their own candidate.  Every restart owns a seed substream, so
plans are byte-identical across ``parallel`` degrees — the property the
test suite asserts for remap decisions just as the schedulers assert it
for mappings.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro._util import check_fraction
from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.remap.cost import MigrationCostModel, RemapCostModel
from repro.remap.plan import RemapPlan
from repro.schedulers.annealing import AnnealingSchedule
from repro.search.pool import run_tasks
from repro.search.portfolio import reduce_outcomes
from repro.search.spec import SearchSpec
from repro.search.worker import SaTask
from repro.telemetry import get_registry, stage

__all__ = ["Remapper"]

#: Metric families shared with the daemon's pre-declaration (identical
#: name/help strings keep registry declarations idempotent).
DECISIONS_TOTAL = (
    "cbes_remap_decisions_total",
    "Remap cost/benefit verdicts by decision.",
    ("decision",),
)
MIGRATION_SECONDS_TOTAL = (
    "cbes_remap_migration_seconds_total",
    "Predicted migration seconds charged by adopted remap plans.",
)


class Remapper:
    """Proposes remap plans for a running application.

    ``safety_factor`` inflates the migration cost in the decision rule
    (the paper's cost/benefit calculus made conservative: predictions
    err, migrations are disruptive, so demand the savings clear the
    cost with margin).  ``restarts``/``seed_scan``/``schedule`` shape
    the candidate search exactly as they do for the CS scheduler; the
    default schedule is deliberately shorter than a from-scratch
    schedule because the warm start already sits in a good basin.
    """

    def __init__(
        self,
        *,
        cost_model: MigrationCostModel | RemapCostModel | None = None,
        safety_factor: float = 1.5,
        schedule: AnnealingSchedule | None = None,
        swap_probability: float = 0.5,
        restarts: int = 3,
        seed_scan: int = 8,
        parallel: int = 1,
        mp_context: str | None = None,
    ) -> None:
        if safety_factor <= 0.0:
            raise ValueError("safety_factor must be > 0")
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        if seed_scan < 0:
            raise ValueError("seed_scan must be >= 0")
        if not isinstance(parallel, int) or isinstance(parallel, bool) or parallel < 1:
            raise ValueError(f"parallel must be an integer >= 1, got {parallel!r}")
        self.cost_model = cost_model or MigrationCostModel()
        self.safety_factor = safety_factor
        self._schedule = schedule or AnnealingSchedule(
            moves_per_temperature=40, steps=24, patience=8
        )
        self._swap_p = swap_probability
        self._restarts = restarts
        self._seed_scan = seed_scan
        self._parallel = parallel
        self._mp_context = mp_context

    def propose(
        self,
        evaluator: MappingEvaluator,
        current: TaskMapping,
        *,
        pool: Sequence[str] | None = None,
        fraction_remaining: float = 1.0,
        seed: int = 0,
    ) -> RemapPlan:
        """Search for a better mapping and decide whether to switch.

        *evaluator* must be bound to the fresh snapshot (that is the
        point of remapping); *pool* defaults to every node the
        evaluator knows.  ``fraction_remaining`` scales both remaining-
        time predictions, so late-run remaps must clear the same
        absolute migration cost with a smaller absolute saving.
        """
        check_fraction(fraction_remaining, "fraction_remaining", closed_low=False)
        node_pool = tuple(pool) if pool is not None else tuple(sorted(evaluator.nodes))
        if not node_pool:
            raise ValueError("pool must contain at least one node")
        with stage(
            "remap.propose",
            app=evaluator.profile.app_name,
            pool=len(node_pool),
            seed=seed,
        ) as span:
            candidate, search_evals = self._search(evaluator, current, node_pool, seed)
            plan = self.decide(
                evaluator, current, candidate, fraction_remaining=fraction_remaining
            )
            plan = replace(plan, evaluations=plan.evaluations + search_evals)
            span.set_attribute("decision", "remap" if plan.remap else "stay")
            span.set_attribute("moved", len(plan.moves))
            span.set_attribute("savings_s", plan.savings_s)
            span.set_attribute("migration_cost_s", plan.migration_cost_s)
            span.set_attribute("evaluations", plan.evaluations)
        return plan

    def decide(
        self,
        evaluator: MappingEvaluator,
        current: TaskMapping,
        candidate: TaskMapping,
        *,
        fraction_remaining: float,
    ) -> RemapPlan:
        """The cost/benefit verdict on switching *current* -> *candidate*.

        Steps 2-4 of :meth:`propose`, for a candidate the caller already
        has: the stay and the move scored under *evaluator*'s (fresh)
        snapshot, two evaluations, the cost model's price of the diff,
        and the rule.
        ``fraction_remaining`` is the share of work still to be done.
        """
        check_fraction(fraction_remaining, "fraction_remaining", closed_low=False)
        context = evaluator.fast_context(evaluator.options)
        stay_s = context.execution_time(current) * fraction_remaining
        move_s = context.execution_time(candidate) * fraction_remaining
        evaluator.record_evaluations(2)
        moves = self.cost_model.moves_from_context(context, current, candidate)
        cost = self.cost_model.total_cost(moves)
        decision = bool(moves) and stay_s - move_s > cost * self.safety_factor
        registry = get_registry()
        registry.counter(*DECISIONS_TOTAL).inc(decision="remap" if decision else "stay")
        if decision:
            registry.counter(*MIGRATION_SECONDS_TOTAL).inc(cost)
        return RemapPlan(
            remap=decision,
            current=current,
            candidate=candidate,
            moves=moves,
            current_remaining_s=stay_s,
            candidate_remaining_s=move_s,
            migration_cost_s=cost,
            safety_factor=self.safety_factor,
            evaluations=2,
        )

    # -- candidate search ------------------------------------------------
    def _search(
        self,
        evaluator: MappingEvaluator,
        current: TaskMapping,
        pool: tuple[str, ...],
        seed: int,
    ) -> tuple[TaskMapping, int]:
        spec = SearchSpec.from_evaluator(evaluator, list(pool))
        # Restart 0 warm-starts from the incumbent mapping; restart 1
        # from the fastest-nodes greedy construction; the rest from
        # random seed scans — polish vs escape in one batch.
        tasks = [
            SaTask(
                index=attempt,
                seed=seed,
                rng_parts=("remap", pool, evaluator.profile.app_name, "restart", attempt),
                schedule=self._schedule,
                swap_probability=self._swap_p,
                start=current if attempt == 0 else None,
                greedy_start=(attempt == 1),
                seed_scan=self._seed_scan if attempt >= 1 else 0,
            )
            for attempt in range(self._restarts)
        ]
        outcomes = run_tasks(
            spec, tasks, workers=self._parallel, evaluator=evaluator, mp_context=self._mp_context
        )
        result = reduce_outcomes(outcomes, "minimize")
        evaluator.record_evaluations(result.evaluations)
        return result.mapping, result.evaluations

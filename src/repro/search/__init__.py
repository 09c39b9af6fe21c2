"""Process-parallel search engine for CBES schedulers.

A :class:`~repro.search.spec.SearchSpec` describes one search problem
and :func:`~repro.search.pool.run_tasks` is the one entry that runs
tasks against it — inline or on the warm worker pool
(:mod:`repro.search.pool`), its choice alone.
:class:`~repro.search.portfolio.ParallelPortfolio` fans SA restarts out
through it with a deterministic best-of reduction, and
:func:`~repro.search.islands.run_island_ga` runs the island-model GA
with ring migration, one batch per epoch.  ``parallel=1`` and
``parallel=N`` produce byte-identical mappings for the same master seed.
"""

from repro.search.islands import IslandResult, run_island_ga
from repro.search.pool import WorkerPool, get_pool, run_tasks, shutdown_pool
from repro.search.portfolio import ParallelPortfolio, PortfolioResult
from repro.search.spec import SearchSpec, greedy_mapping
from repro.search.worker import GaEpochTask, IslandState, SaOutcome, SaTask, TaskRunner

__all__ = [
    "SearchSpec",
    "greedy_mapping",
    "run_tasks",
    "ParallelPortfolio",
    "PortfolioResult",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "SaTask",
    "SaOutcome",
    "TaskRunner",
    "GaEpochTask",
    "IslandState",
    "IslandResult",
    "run_island_ga",
]

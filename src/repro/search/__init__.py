"""Process-parallel search engine for CBES schedulers.

A :class:`~repro.search.spec.SearchSpec` ships one search problem to
the warm worker pool (:mod:`repro.search.pool`),
:class:`~repro.search.portfolio.ParallelPortfolio` fans SA restarts
out with a deterministic best-of reduction, and
:func:`~repro.search.islands.run_island_ga` runs the island-model GA
with ring migration.  ``parallel=1`` and ``parallel=N`` produce
byte-identical mappings for the same master seed.
"""

from repro.search.islands import IslandResult, run_island_ga
from repro.search.pool import WorkerPool, get_pool, shutdown_pool
from repro.search.portfolio import ParallelPortfolio, PortfolioResult, effective_workers
from repro.search.spec import SearchSpec, draw_initial_mapping, greedy_mapping
from repro.search.worker import GaEpochTask, IslandState, SaOutcome, SaTask, TaskRunner

__all__ = [
    "SearchSpec",
    "draw_initial_mapping",
    "greedy_mapping",
    "ParallelPortfolio",
    "PortfolioResult",
    "effective_workers",
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

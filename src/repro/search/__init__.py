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

from typing import Any

from repro._util import LazyExports

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

_EXPORTS = LazyExports(
    __name__,
    {
        "islands": ("IslandResult", "run_island_ga"),
        "pool": ("WorkerPool", "get_pool", "run_tasks", "shutdown_pool"),
        "portfolio": ("ParallelPortfolio", "PortfolioResult"),
        "spec": ("SearchSpec", "greedy_mapping"),
        "worker": ("GaEpochTask", "IslandState", "SaOutcome", "SaTask", "TaskRunner"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

"""Process-parallel search engine for CBES schedulers.

A :class:`~repro.search.spec.SearchSpec` describes one search problem
and :func:`~repro.search.pool.run_tasks` is the one entry that runs
tasks against it — inline or on the warm worker pool
(:mod:`repro.search.pool`), its choice alone.  SA restarts are one
batch reduced by :func:`~repro.search.portfolio.reduce_outcomes`, a
deterministic best-of; :func:`~repro.search.islands.run_island_ga` runs
every GA, one batch per epoch, with ring migration between two or more
islands.  Both reduce to one :class:`~repro.search.portfolio.SearchResult`.
``parallel=1`` and ``parallel=N`` produce byte-identical mappings for
the same master seed.
"""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "SearchSpec",
    "greedy_mapping",
    "run_tasks",
    "SearchResult",
    "reduce_outcomes",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "SaTask",
    "SaOutcome",
    "TaskRunner",
    "GaEpochTask",
    "IslandState",
    "run_island_ga",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "islands": ("run_island_ga",),
        "pool": ("WorkerPool", "get_pool", "run_tasks", "shutdown_pool"),
        "portfolio": ("SearchResult", "reduce_outcomes"),
        "spec": ("SearchSpec", "greedy_mapping"),
        "worker": ("GaEpochTask", "IslandState", "SaOutcome", "SaTask", "TaskRunner"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

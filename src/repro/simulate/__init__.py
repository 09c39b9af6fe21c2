"""Ground-truth execution simulation of MPI-like programs on clusters."""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "ClusterSimulator",
    "Compute",
    "Exchange",
    "LinkContentionTracker",
    "LoadTimeline",
    "Marker",
    "Op",
    "Program",
    "Recv",
    "Send",
    "SendRecv",
    "SimulationConfig",
    "SimulationDeadlock",
    "SimulationResult",
    "cpu_share",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "contention": ("LinkContentionTracker", "cpu_share"),
        "timeline": ("LoadTimeline",),
        "engine": (
            "ClusterSimulator",
            "SimulationConfig",
            "SimulationDeadlock",
            "SimulationResult",
        ),
        "program": ("Compute", "Exchange", "Marker", "Op", "Program", "Recv", "Send", "SendRecv"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

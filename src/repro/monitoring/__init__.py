"""System monitoring: sensors, forecasting, snapshots, load injection."""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "AR1",
    "AdaptiveForecaster",
    "CpuSensor",
    "Ewma",
    "Forecaster",
    "LastValue",
    "LoadEvent",
    "LoadGenerator",
    "NicSensor",
    "NodeState",
    "SlidingMean",
    "SlidingMedian",
    "SystemMonitor",
    "SystemSnapshot",
    "make_forecaster",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "forecasting": (
            "AR1",
            "AdaptiveForecaster",
            "Ewma",
            "Forecaster",
            "LastValue",
            "SlidingMean",
            "SlidingMedian",
            "make_forecaster",
        ),
        "load": ("LoadEvent", "LoadGenerator"),
        "monitor": ("SystemMonitor",),
        "sensors": ("CpuSensor", "NicSensor"),
        "snapshot": ("NodeState", "SystemSnapshot"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

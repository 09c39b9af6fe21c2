"""Application profiling: traces, profiles, trace analysis, speed ratios."""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "ApplicationProfile",
    "ExecutionTrace",
    "MarkerRecord",
    "MessageGroup",
    "MessageRecord",
    "ProcessProfile",
    "ProfileDatabase",
    "TimeCategory",
    "TimeRecord",
    "TraceAnalyzer",
    "measure_speed_ratios",
    "theta",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "analyzer": ("TraceAnalyzer",),
        "database": ("ProfileDatabase",),
        "events": ("MarkerRecord", "MessageRecord", "TimeCategory", "TimeRecord"),
        "profile": ("ApplicationProfile", "MessageGroup", "ProcessProfile", "theta"),
        "speeds": ("measure_speed_ratios",),
        "trace": ("ExecutionTrace",),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

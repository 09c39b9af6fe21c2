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
    "gantt",
    "load_trace",
    "measure_speed_ratios",
    "save_trace",
    "theta",
    "trace_from_dict",
    "trace_to_dict",
    "utilization",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "analyzer": ("TraceAnalyzer",),
        "database": ("ProfileDatabase",),
        "export": (
            "gantt",
            "load_trace",
            "save_trace",
            "trace_from_dict",
            "trace_to_dict",
            "utilization",
        ),
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

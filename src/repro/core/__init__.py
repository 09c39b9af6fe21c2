"""CBES core: mappings, the evaluation operation, and the service facade."""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "CBES",
    "ApplicationModel",
    "CbesError",
    "ClusterReservations",
    "EvaluationContext",
    "EvaluationOptions",
    "FastEvalUnavailable",
    "IncrementalEvaluator",
    "InvalidMappingError",
    "MappingEvaluator",
    "MappingPrediction",
    "NotCalibratedError",
    "ProcessPrediction",
    "Reservation",
    "SegmentPlan",
    "SegmentScheduler",
    "TaskMapping",
    "UnknownProfileError",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "colocation": ("ClusterReservations", "Reservation"),
        "errors": ("CbesError", "InvalidMappingError", "NotCalibratedError", "UnknownProfileError"),
        "evaluation": (
            "EvaluationOptions",
            "MappingEvaluator",
            "MappingPrediction",
            "ProcessPrediction",
        ),
        "fast_eval": ("EvaluationContext", "FastEvalUnavailable", "IncrementalEvaluator"),
        "mapping": ("TaskMapping",),
        "segments": ("SegmentPlan", "SegmentScheduler"),
        "service": ("CBES", "ApplicationModel"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

"""CBES core: mappings, the evaluation operation, and the service facade."""

from repro.core.colocation import ClusterReservations, Reservation
from repro.core.errors import (
    CbesError,
    InvalidMappingError,
    NotCalibratedError,
    UnknownProfileError,
)
from repro.core.evaluation import (
    EvaluationOptions,
    MappingEvaluator,
    MappingPrediction,
    ProcessPrediction,
)
from repro.core.fast_eval import (
    EvaluationContext,
    FastEvalUnavailable,
    IncrementalEvaluator,
)
from repro.core.mapping import TaskMapping
from repro.core.segments import SegmentPlan, SegmentScheduler
from repro.core.service import CBES, ApplicationModel

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

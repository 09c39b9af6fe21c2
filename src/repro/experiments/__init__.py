"""Experiment harness and the paper's validation/scheduling studies."""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "AverageCaseResult",
    "ExperimentContext",
    "LoadSensitivityPoint",
    "MappingSignature",
    "Measurement",
    "Phase1Config",
    "PredictionCase",
    "WorstBestResult",
    "Zone",
    "ascii_table",
    "average_case",
    "full_scale",
    "group_by_signature",
    "load_sensitivity",
    "lu_zones",
    "phase1_sweep",
    "prediction_error_case",
    "range_plot",
    "repetitions",
    "representative_sample",
    "sample_mapping_times",
    "signature",
    "text_histogram",
    "worst_vs_best",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "harness": ("ExperimentContext", "Measurement", "full_scale", "repetitions"),
        "mapping_space": (
            "MappingSignature",
            "group_by_signature",
            "representative_sample",
            "signature",
        ),
        "report": ("ascii_table", "range_plot", "text_histogram"),
        "scheduling": (
            "AverageCaseResult",
            "WorstBestResult",
            "Zone",
            "average_case",
            "lu_zones",
            "sample_mapping_times",
            "worst_vs_best",
        ),
        "validation": (
            "LoadSensitivityPoint",
            "Phase1Config",
            "PredictionCase",
            "load_sensitivity",
            "phase1_sweep",
            "prediction_error_case",
        ),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

"""Workload models: NPB, HPL, ASCI Purple selection, synthetic benchmark."""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "BT",
    "CG",
    "EP",
    "FT",
    "HPL",
    "IS",
    "IrregularApplication",
    "LU",
    "MG",
    "NPB_CLASSES",
    "NpbClassParams",
    "PhasedApplication",
    "ProgramBuilder",
    "SAMRAI",
    "SMG2000",
    "SP",
    "Sweep3D",
    "SyntheticBenchmark",
    "Towhee",
    "WORK_PER_FLOP",
    "WorkloadModel",
    "grid_dims",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "asci": ("SAMRAI", "SMG2000", "Aztec", "Sweep3D", "Towhee"),
        "base": ("WorkloadModel",),
        "hpl": ("HPL", "WORK_PER_FLOP"),
        "irregular": ("IrregularApplication",),
        "npb": ("BT", "CG", "EP", "FT", "IS", "LU", "MG", "NPB_CLASSES", "SP", "NpbClassParams"),
        "patterns": ("ProgramBuilder", "grid_dims"),
        "phased": ("PhasedApplication",),
        "synthetic": ("SyntheticBenchmark",),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

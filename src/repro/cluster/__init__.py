"""Cluster hardware model: nodes, network fabric, latency calibration."""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "ALPHA_533",
    "INTEL_PII_400",
    "SPARC_500",
    "Architecture",
    "CalibrationReport",
    "Calibrator",
    "Cluster",
    "LatencyModel",
    "LinkSpec",
    "NICSpec",
    "NetworkFabric",
    "Node",
    "PathComponents",
    "SwitchSpec",
    "centurion",
    "fat_star",
    "federated",
    "orange_grove",
    "schedule_cliques",
    "single_switch",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "calibration": ("CalibrationReport", "Calibrator", "schedule_cliques"),
        "cluster": ("Cluster",),
        "latency": ("LatencyModel", "PathComponents"),
        "network": ("LinkSpec", "NetworkFabric", "SwitchSpec"),
        "node": ("ALPHA_533", "INTEL_PII_400", "SPARC_500", "Architecture", "NICSpec", "Node"),
        "topology": ("centurion", "fat_star", "federated", "orange_grove", "single_switch"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

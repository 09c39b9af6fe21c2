"""Per-architecture application speed measurement.

The paper's footnote 1: *"The application profile also includes
experimentally measured speed ratios for all cluster node
architectures."*  On the real clusters a short compute kernel of the
application is timed once per architecture.  Here the measurement runs
the same way against the simulated hardware: each architecture executes
a fixed amount of the application's compute work and the observed rate
is recorded, including measurement noise, so the stored ratios are
*measurements*, not copies of the ground truth.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro._util import check_positive, left_fold, spawn_rng
from repro.cluster.node import Architecture

__all__ = ["measure_speed_ratios"]

#: Application architecture-affinity signature: arch name -> multiplier.
AffinityFn = Callable[[str], float]


def measure_speed_ratios(
    architectures: Iterable[Architecture],
    *,
    affinity: AffinityFn | None = None,
    noise: float = 0.005,
    repetitions: int = 3,
    seed: int = 0,
    app_name: str = "",
) -> dict[str, float]:
    """Measure an application's effective speed on each architecture.

    ``affinity`` captures application-specific deviations from the
    architecture's scalar base speed (e.g. a cache-friendly code running
    relatively better on the large-cache Alpha); workload models expose
    it as ``arch_affinity``.  The returned dict maps architecture name
    to measured speed in the same work-units/second scale used by
    :class:`~repro.cluster.node.Architecture.base_speed`.
    """
    if noise < 0:
        raise ValueError("noise must be >= 0")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    ratios: dict[str, float] = {}
    for arch in architectures:
        true_speed = arch.base_speed * (affinity(arch.name) if affinity else 1.0)
        check_positive(true_speed, f"speed on {arch.name}")
        if noise == 0.0:
            ratios[arch.name] = true_speed
            continue
        rng = spawn_rng(seed, "speed-ratio", app_name, arch.name)
        # Time a fixed kernel `repetitions` times; speed = work / mean time.
        times = [(1.0 / true_speed) * x for x in rng.normal(1.0, noise, size=repetitions)]
        ratios[arch.name] = len(times) / left_fold(abs(t) for t in times)
    return ratios

"""Experiment harness: repeated measurement with confidence intervals.

All paper experiments report means with 95 % confidence intervals over 5
(validation) or 100 (scheduling) runs.  The harness centralizes that
protocol plus the profile/measure plumbing shared by the experiment
modules, and honours the ``REPRO_FULL`` environment variable: by default
experiments run at a reduced scale that finishes in seconds; with
``REPRO_FULL=1`` they use the paper's repetition counts.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro._util import mean_and_ci95
from repro.core.mapping import TaskMapping
from repro.core.service import CBES, ApplicationModel

__all__ = ["Artefact", "Measurement", "full_scale", "repetitions", "ExperimentContext"]


def full_scale() -> bool:
    """True when the paper-scale protocol was requested (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes")


def repetitions(reduced: int, full: int) -> int:
    """Pick the repetition count for the current scale."""
    if reduced < 1 or full < reduced:
        raise ValueError("need 1 <= reduced <= full")
    return full if full_scale() else reduced


@dataclass(frozen=True)
class Measurement:
    """A repeated measurement: mean and 95 % CI half-width."""

    mean: float
    ci95: float
    runs: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Measurement":
        mean, ci = mean_and_ci95(samples)
        return cls(mean=mean, ci95=ci, runs=len(samples))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.1f} ± {self.ci95:.1f} (n={self.runs})"


class ExperimentContext:
    """A calibrated CBES service plus measurement helpers for experiments."""

    def __init__(self, service: CBES):
        self._service = service
        if not service.cluster.is_calibrated:
            service.calibrate(seed=1)

    @property
    def service(self) -> CBES:
        return self._service

    def ensure_profiled(
        self, app: ApplicationModel, nprocs: int, *, mapping: TaskMapping | None = None, seed: int = 0
    ):
        """Profile *app* once (idempotent per application name).

        Profiles are per process count: a stored profile with a
        different ``nprocs`` is replaced, since eq. (4) needs exactly
        one ``ProcessProfile`` per mapped rank.
        """
        if app.name in self._service.profiled_applications:
            existing = self._service.profile(app.name)
            if existing.nprocs == nprocs:
                return existing
        return self._service.profile_application(app, nprocs, mapping=mapping, seed=seed)

    def measure(
        self,
        app: ApplicationModel,
        mapping: TaskMapping,
        *,
        runs: int = 5,
        seed: int = 0,
    ) -> Measurement:
        """Measured execution time of *app* under *mapping* (n runs)."""
        if runs < 1:
            raise ValueError("runs must be >= 1")
        program = app.program(mapping.nprocs)
        samples = [
            self._service.simulator.run(
                program,
                mapping.as_dict(),
                seed=seed + k,
                arch_affinity=app.arch_affinity,
                collect_trace=False,
            ).total_time
            for k in range(runs)
        ]
        return Measurement.from_samples(samples)

    def predict(self, app_name: str, mapping: TaskMapping) -> float:
        """One full CBES prediction for *mapping*."""
        return self._service.evaluator(app_name).execution_time(mapping)


@dataclass(frozen=True)
class Artefact:
    """One table or figure of the paper: its recipe, its text, its shape.

    ``run(ctx)`` takes the calibrated context of the testbed named by
    ``cluster`` and returns the measured result, ``render(result)`` is
    the printed artefact, and ``check(result)`` raises
    ``AssertionError`` when the paper's shape does not hold.
    """

    name: str
    cluster: str
    run: Callable[[ExperimentContext], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], None]

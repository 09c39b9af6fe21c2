"""Drift detection: when does changed load justify a remap evaluation?

A :class:`DriftWatcher` stands between the monitoring subsystem and the
remapper.  Each monitoring round, the caller feeds it the current
mapping's *predicted remaining time* under the freshest (forecasted)
snapshot together with the baseline prediction made when the mapping
was adopted; the watcher turns that stream into discrete
:class:`DriftEvent`\\ s worth spending a candidate search on.

Three guards keep transient spikes from thrashing the application:

* **threshold** — the smoothed relative degradation must exceed it;
* **hysteresis** — after firing, the watcher re-arms only once the
  signal recedes below ``threshold * hysteresis`` (a low-water mark),
  so a value oscillating around the threshold fires once, not every
  round;
* **cooldown** — at least ``cooldown_s`` of logical time must separate
  two events (and a :meth:`rebase` restarts the window), bounding the
  remap frequency no matter what the signal does.

The degradation series is smoothed through a :mod:`repro.monitoring.
forecasting` forecaster (default ``last-value`` = no smoothing), so a
bursty sensor can be tamed with ``ewma``/``mean`` without touching the
thresholds.

The paper names two remapping causes.  The series above is the
**external** one (system conditions changed under the mapping).  The
**internal** one — the application's own behaviour changed — is the
pure statistic :func:`behaviour_drift` between the profile the mapping
was judged for and the profile of the segment now executing; fed to
:meth:`DriftWatcher.observe` as ``behaviour``, it is a second way to be
above the line under the same three guards.

Time is an explicit *logical* ``now_s`` argument — the
watcher never reads a wall clock, keeping the whole loop deterministic
and replayable (the daemon passes tick times, the closed-loop
simulation passes simulated phase times).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import left_fold
from repro.monitoring.forecasting import make_forecaster
from repro.profiling.profile import ApplicationProfile
from repro.telemetry import get_registry

__all__ = ["DriftEvent", "DriftWatcher", "behaviour_drift"]

#: Metric family shared with the daemon's pre-declaration (identical
#: name/help so registry declarations stay idempotent).
DRIFT_EVENTS_TOTAL = (
    "cbes_remap_drift_events_total",
    "Drift events fired by remap watchers.",
)


def behaviour_drift(fitted: ApplicationProfile, active: ApplicationProfile) -> float:
    """How far *active* behaves from the profile a mapping was *fitted* to.

    The larger of two statistics: the relative change of the aggregate
    communication share, and the L1 distance between the normalised
    per-rank compute vectors (which ranks are heavy — the thing a
    mapping is fitted to; 0.0 when either profile computes nothing).
    """
    _, fitted_comm = fitted.comp_comm_ratio
    _, active_comm = active.comp_comm_ratio
    base = max(fitted_comm, 1e-6)
    share = abs(active_comm - base) / base
    fitted_x = [p.compute_time for p in fitted.processes]
    active_x = [p.compute_time for p in active.processes]
    fitted_total, active_total = left_fold(fitted_x), left_fold(active_x)
    if fitted_total <= 0 or active_total <= 0:
        return share
    shape = left_fold(
        abs(f / fitted_total - a / active_total)
        for f, a in zip(fitted_x, active_x, strict=False)
    )
    return max(share, shape)


@dataclass(frozen=True)
class DriftEvent:
    """One firing of the drift detector."""

    #: Logical time of the observation that fired (seconds).
    now_s: float
    #: Smoothed relative degradation that crossed the threshold
    #: (``predicted / baseline - 1`` after forecaster smoothing).
    degradation: float
    #: Raw predicted remaining time under the fresh snapshot.
    predicted_s: float
    #: Remaining time predicted when the current mapping was adopted.
    baseline_s: float
    #: The :func:`behaviour_drift` fed with the observation; above the
    #: watcher's ``behaviour_threshold`` when the internal source fired.
    behaviour: float = 0.0


class DriftWatcher:
    """Turns a degradation series into thrash-resistant drift events."""

    def __init__(
        self,
        *,
        threshold: float = 0.10,
        hysteresis: float = 0.5,
        cooldown_s: float = 0.0,
        forecaster: str = "last-value",
        behaviour_threshold: float = 0.5,
    ) -> None:
        if threshold <= 0.0:
            raise ValueError("threshold must be > 0")
        if behaviour_threshold <= 0.0:
            raise ValueError("behaviour_threshold must be > 0")
        if not 0.0 <= hysteresis <= 1.0:
            raise ValueError("hysteresis must be in [0, 1]")
        if cooldown_s < 0.0:
            raise ValueError("cooldown_s must be >= 0")
        self.threshold = threshold
        self.hysteresis = hysteresis
        self.cooldown_s = cooldown_s
        self.behaviour_threshold = behaviour_threshold
        self._kind = forecaster
        self._forecaster = make_forecaster(forecaster)
        self._armed = True
        self._last_fired: float | None = None
        self._events = 0

    @property
    def events(self) -> int:
        """Total drift events fired over this watcher's lifetime."""
        return self._events

    @property
    def armed(self) -> bool:
        """Whether the next above-threshold observation may fire."""
        return self._armed

    def observe(
        self, now_s: float, predicted_s: float, baseline_s: float, behaviour: float = 0.0
    ) -> DriftEvent | None:
        """Feed one monitoring round; returns an event when drift fires.

        *predicted_s* is the current mapping's remaining time under the
        freshest snapshot; *baseline_s* the remaining time expected when
        the mapping was adopted (scaled by the same work fraction, so
        the ratio isolates the *environmental* change).  *behaviour* is
        the :func:`behaviour_drift` of the segment now executing (0.0:
        the application behaves as the mapping was judged for).
        """
        if baseline_s <= 0.0:
            raise ValueError("baseline_s must be > 0")
        if predicted_s < 0.0:
            raise ValueError("predicted_s must be >= 0")
        degradation = predicted_s / baseline_s - 1.0
        self._forecaster.update(degradation)
        smoothed = self._forecaster.forecast()
        if (
            smoothed <= self.threshold * self.hysteresis
            and behaviour <= self.behaviour_threshold * self.hysteresis
        ):
            # Both signals receded below their low-water marks: re-arm.
            self._armed = True
        if not self._armed or (
            smoothed <= self.threshold and behaviour <= self.behaviour_threshold
        ):
            return None
        if (
            self._last_fired is not None
            and now_s - self._last_fired < self.cooldown_s
        ):
            return None
        self._armed = False
        self._last_fired = now_s
        self._events += 1
        get_registry().counter(*DRIFT_EVENTS_TOTAL).inc()
        return DriftEvent(
            now_s=now_s,
            degradation=smoothed,
            predicted_s=predicted_s,
            baseline_s=baseline_s,
            behaviour=behaviour,
        )

    def rebase(self, now_s: float) -> None:
        """Reset after the watched mapping changed (remap adopted).

        Drops the stale degradation history (the new mapping defines a
        new baseline regime), re-arms the detector, and starts the
        cooldown window at *now_s* so the fresh mapping gets at least
        one quiet cooldown before the next event can fire.
        """
        self._forecaster = make_forecaster(self._kind)
        self._armed = True
        self._last_fired = now_s

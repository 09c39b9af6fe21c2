"""Application runtime monitoring and remapping triggers (future work).

Section 8: *"we're planning to expand the CBES infrastructure with
application monitoring and remapping capabilities."*  This module
implements that layer on top of the existing pieces:

* :class:`RunningApplication` tracks one application's progress
  (fraction of profiled work completed, current mapping);
* :class:`RemapTrigger` watches for the two remapping causes the paper
  names — **external** events (system conditions changed under the
  current mapping) and **internal** events (the application's own
  behaviour changed, detected by comparing the active segment's profile
  against the profile the mapping was chosen for);
* :class:`RuntimeScheduler` puts them together: on a trigger it asks
  its launch scheduler for a candidate mapping and :meth:`Remapper.decide
  <repro.remap.remapper.Remapper.decide>` — the one cost/benefit rule,
  by default at the flat :class:`~repro.remap.cost.RemapCostModel`
  price — for the verdict.  (The load-driven loop with drift hysteresis
  and a warm-started search is :class:`~repro.remap.loop.RemapLoop`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import CbesError
from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.core.service import CBES
from repro.profiling.profile import ApplicationProfile
from repro.remap import RemapCostModel, Remapper, RemapPlan

__all__ = ["RunningApplication", "RemapTrigger", "RuntimeScheduler"]


@dataclass
class RunningApplication:
    """Book-keeping for one application under CBES runtime management."""

    app_name: str
    mapping: TaskMapping
    #: Fraction of the application's profiled work already done (0..1).
    progress: float = 0.0
    #: Predicted total time the mapping was selected with.
    predicted_time: float = 0.0
    #: Index of the currently executing profile segment (if segmented).
    segment: int | None = None
    remap_count: int = 0
    history: list[str] = field(default_factory=list)

    def advance(self, fraction: float) -> None:
        """Record *fraction* more of the work as completed."""
        if fraction < 0:
            raise ValueError("fraction must be >= 0")
        self.progress = min(1.0, self.progress + fraction)

    @property
    def fraction_remaining(self) -> float:
        """Share of the application's work still to run, in [0, 1]."""
        return max(0.0, 1.0 - self.progress)

    @property
    def finished(self) -> bool:
        """Whether the application has completed all of its work."""
        return self.progress >= 1.0


class RemapTrigger:
    """Detects conditions under which a running app should be re-examined.

    Parameters
    ----------
    prediction_drift:
        Relative increase of the fresh prediction for the *current*
        mapping over the prediction it was selected with that counts as
        an external (system-side) trigger.  The paper's phase-3 finding
        — predictions break once a mapped node loses ~10 % CPU — makes
        ~0.08 a sensible default.
    behaviour_drift:
        Relative change in a segment's communication share versus the
        whole-run profile that counts as an internal (application-side)
        trigger.
    """

    def __init__(self, *, prediction_drift: float = 0.08, behaviour_drift: float = 0.5):
        if prediction_drift <= 0 or behaviour_drift <= 0:
            raise ValueError("drift thresholds must be > 0")
        self.prediction_drift = prediction_drift
        self.behaviour_drift = behaviour_drift

    def external(self, running: RunningApplication, evaluator: MappingEvaluator) -> bool:
        """System conditions changed enough to reconsider the mapping."""
        if running.predicted_time <= 0:
            return False
        fresh = evaluator.execution_time(running.mapping)
        return fresh > running.predicted_time * (1.0 + self.prediction_drift)

    def internal(self, profile: ApplicationProfile, segment: int) -> bool:
        """The application entered a segment that behaves differently.

        Two statistics are compared against the whole-run profile: the
        aggregate communication share, and the *shape* of the per-rank
        compute distribution (which ranks are heavy — the thing a
        mapping was fitted to).  Either deviating past the threshold
        fires the trigger.
        """
        seg_profile = profile.segments.get(segment)
        if seg_profile is None:
            return False
        _, whole_comm = profile.comp_comm_ratio
        _, seg_comm = seg_profile.comp_comm_ratio
        base = max(whole_comm, 1e-6)
        if abs(seg_comm - base) / base > self.behaviour_drift:
            return True
        # Per-rank compute shape: L1 distance of the normalized vectors.
        whole = [p.compute_time for p in profile.processes]
        seg = [p.compute_time for p in seg_profile.processes]
        whole_total, seg_total = sum(whole), sum(seg)
        if whole_total <= 0 or seg_total <= 0:
            return False
        distance = sum(
            abs(w / whole_total - s / seg_total) for w, s in zip(whole, seg, strict=False)
        )
        return distance > self.behaviour_drift


class RuntimeScheduler:
    """Drives initial placement and remapping for running applications."""

    def __init__(
        self,
        service: CBES,
        scheduler,
        *,
        pool: list[str],
        remapper: Remapper | None = None,
        trigger: RemapTrigger | None = None,
    ) -> None:
        if not pool:
            raise CbesError("runtime scheduler needs a nonempty node pool")
        self._service = service
        self._scheduler = scheduler
        self._pool = list(pool)
        self._remapper = remapper or Remapper(cost_model=RemapCostModel(), safety_factor=1.0)
        self._trigger = trigger or RemapTrigger()
        self._running: dict[str, RunningApplication] = {}

    # -- lifecycle -------------------------------------------------------
    def launch(self, app_name: str, *, seed: int = 0) -> RunningApplication:
        """Initial scheduling of a profiled application."""
        result = self._service.schedule(app_name, self._scheduler, self._pool, seed=seed)
        running = RunningApplication(
            app_name=app_name,
            mapping=result.mapping,
            predicted_time=result.predicted_time,
        )
        running.history.append(f"launched on {len(result.mapping)} nodes")
        self._running[app_name] = running
        return running

    def running(self, app_name: str) -> RunningApplication:
        """The tracked state of one launched application."""
        try:
            return self._running[app_name]
        except KeyError:
            raise CbesError(f"{app_name!r} is not under runtime management") from None

    # -- periodic check ----------------------------------------------------
    def check(self, app_name: str, *, seed: int = 0) -> RemapPlan | None:
        """One monitoring tick: evaluate triggers, maybe remap.

        Returns the remapper's plan when a trigger fired (whether or
        not it recommended remapping), or None when nothing fired.
        """
        running = self.running(app_name)
        if running.finished:
            return None
        evaluator = self._service.evaluator(app_name)
        profile = self._service.profile(app_name)
        fired = self._trigger.external(running, evaluator) or (
            running.segment is not None and self._trigger.internal(profile, running.segment)
        )
        if not fired:
            return None
        candidate = self._service.schedule(
            app_name, self._scheduler, self._pool, seed=seed
        )
        plan = self._remapper.decide(
            evaluator,
            running.mapping,
            candidate.mapping,
            fraction_remaining=max(running.fraction_remaining, 1e-6),
        )
        if plan.remap:
            running.mapping = candidate.mapping
            running.predicted_time = candidate.predicted_time
            running.remap_count += 1
            running.history.append(
                f"remapped at {running.progress:.0%} (benefit {plan.net_benefit_s:.1f}s)"
            )
        else:
            running.history.append(f"trigger at {running.progress:.0%}: stayed")
        return plan

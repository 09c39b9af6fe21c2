"""The remap loop: one application's remap state and its one tick.

A :class:`RemapLoop` is everything the online loop knows about one
running application, and :meth:`RemapLoop.step` the only place the tick
— predict the incumbent, ``watcher.observe``, on drift
``remapper.propose`` — is written, for both of the paper's remapping
causes: the *external* event is the incumbent's degradation under the
fresh snapshot, the *internal* one the :func:`~repro.remap.drift.
behaviour_drift` of the profile segment the caller says is executing.
The daemon's watches
(:mod:`repro.server.watches`) and the closed-loop simulation
(:mod:`repro.simulate.closedloop`) both call it and add only what is
theirs.  Adoption is a second call, :meth:`RemapLoop.adopt`, because
*when* the application resumes on the new mapping is the caller's
knowledge: the daemon's logical clock does not stop for a migration,
the simulation's does, and the cooldown starts at the resume time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro._util import check_fraction
from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.profiling.profile import ApplicationProfile
from repro.remap.drift import DriftEvent, DriftWatcher, behaviour_drift
from repro.remap.plan import RemapPlan
from repro.remap.remapper import Remapper

__all__ = ["RemapLoop"]


@dataclass
class RemapLoop:
    """Remap state of one running application, advanced by :meth:`step`."""

    mapping: TaskMapping
    #: Predicted whole-run time of :attr:`mapping` under the snapshot it
    #: was registered (or last adopted) against — the drift baseline.
    baseline_s: float
    watcher: DriftWatcher
    remapper: Remapper
    #: The remapper's candidate pool (None: every node) and search seed.
    pool: Sequence[str] | None = None
    seed: int = 0
    proposals: int = 0
    remaps: int = 0
    #: The profile segment :attr:`mapping` was last judged for (None:
    #: the whole run).
    segment: int | None = None

    @property
    def drift_events(self) -> int:
        """Drift events the watcher has fired."""
        return self.watcher.events

    def step(
        self,
        evaluator: MappingEvaluator,
        now_s: float,
        fraction_remaining: float = 1.0,
        segment: int | None = None,
    ) -> tuple[DriftEvent, RemapPlan] | None:
        """One monitoring tick at logical time *now_s*.

        Predicts the incumbent under *evaluator*'s (fresh) snapshot and
        feeds the watcher, prediction and baseline scaled by the same
        ``fraction_remaining``; when the executing *segment* is not the
        one the incumbent was judged for, the watcher is also fed how
        far the two profiles differ.  Returns None when no drift fired
        (only the watcher's series has changed), else the event and the
        remapper's plan — searched and judged on the executing
        segment's profile, which becomes :attr:`segment`; a ``remap``
        plan takes effect through :meth:`adopt`.
        """
        check_fraction(fraction_remaining, "fraction_remaining", closed_low=False)
        predicted_s = evaluator.execution_time(self.mapping)
        fitted = _segment_profile(evaluator.profile, self.segment)
        active = _segment_profile(evaluator.profile, segment)
        behaviour = 0.0
        # A disarmed watcher cannot fire, and this signal recedes only
        # when an event moves ``self.segment``: fed now it could only
        # hold the watcher disarmed for good.  Fed from the tick after
        # the one that re-arms, the entry is late, never lost.
        changed = segment != self.segment and fitted is not None and active is not None
        if changed and self.watcher.armed:
            behaviour = behaviour_drift(fitted, active)
        event = self.watcher.observe(
            now_s,
            predicted_s * fraction_remaining,
            self.baseline_s * fraction_remaining,
            behaviour,
        )
        if event is None:
            return None
        self.segment = segment
        if segment is not None and active is not None:
            evaluator = evaluator.with_profile(active)
        plan = self.remapper.propose(
            evaluator,
            self.mapping,
            pool=self.pool,
            fraction_remaining=fraction_remaining,
            seed=self.seed,
        )
        self.proposals += 1
        return event, plan

    def adopt(self, plan: RemapPlan, evaluator: MappingEvaluator, at_s: float) -> None:
        """Switch to *plan*'s candidate, resuming at logical time *at_s*.

        Mapping, baseline and watcher move together: the candidate's
        prediction under *evaluator* is the new baseline, and the
        watcher's cooldown restarts at *at_s*.
        """
        self.mapping = plan.candidate
        self.remaps += 1
        self.watcher.rebase(at_s)
        self.baseline_s = evaluator.execution_time(plan.candidate)

    def to_dict(self) -> dict:
        """Plain-JSON state (the loop's share of a daemon watch document)."""
        return {
            "mapping": list(self.mapping.as_tuple()),
            "pool": list(self.pool) if self.pool is not None else None,
            "seed": self.seed,
            "baseline_s": self.baseline_s,
            "drift_events": self.drift_events,
            "proposals": self.proposals,
            "remaps": self.remaps,
        }


def _segment_profile(profile: ApplicationProfile, segment: int | None) -> ApplicationProfile | None:
    """The whole-run *profile* (None) or one of its segments (None: unknown)."""
    return profile if segment is None else profile.segments.get(segment)

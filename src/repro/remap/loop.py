"""The remap loop: one application's remap state and its one tick.

A :class:`RemapLoop` is everything the online loop knows about one
running application, and :meth:`RemapLoop.step` the only place the tick
— predict the incumbent, ``watcher.observe``, on drift
``remapper.propose`` — is written.  The daemon's watches
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

from repro.core.evaluation import MappingEvaluator
from repro.core.mapping import TaskMapping
from repro.remap.drift import DriftEvent, DriftWatcher
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

    @property
    def drift_events(self) -> int:
        """Drift events the watcher has fired."""
        return self.watcher.events

    def step(
        self, evaluator: MappingEvaluator, now_s: float, fraction_remaining: float = 1.0
    ) -> tuple[DriftEvent, RemapPlan] | None:
        """One monitoring tick at logical time *now_s*.

        Predicts the incumbent under *evaluator*'s (fresh) snapshot and
        feeds the watcher, prediction and baseline scaled by the same
        ``fraction_remaining``.  Returns None when no drift fired (only
        the watcher's series has changed), else the event and the
        remapper's plan; a ``remap`` plan takes effect through :meth:`adopt`.
        """
        predicted_s = evaluator.execution_time(self.mapping)
        event = self.watcher.observe(
            now_s, predicted_s * fraction_remaining, self.baseline_s * fraction_remaining
        )
        if event is None:
            return None
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

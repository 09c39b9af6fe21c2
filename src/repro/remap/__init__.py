"""Online remapping: drift detection, migration cost, remap plans.

The paper's stated future work — *"if system conditions, with regard to
a running application, change, there should be the capability of
generating a new mapping ... taking into account the task remapping
costs"* — as a first-class subsystem:

* :class:`MigrationCostModel` prices a mapping switch as per-rank
  checkpoint transfers over the actual source->destination links
  (:mod:`repro.remap.cost`);
* :class:`DriftWatcher` turns the monitoring stream into
  thrash-resistant drift events (:mod:`repro.remap.drift`);
* :class:`Remapper` searches candidates warm-started from the current
  mapping and returns a deterministic :class:`RemapPlan` under the rule
  ``remap <=> predicted_savings > migration_cost * safety_factor``
  (:mod:`repro.remap.remapper`);
* the flat-cost :class:`RemapAdvisor` is the default advisor of
  :class:`~repro.core.runtime.RuntimeScheduler`
  (:mod:`repro.remap.advisor`; also importable from :mod:`repro.core`).

The daemon loop lives in :mod:`repro.server` (``POST /v1/remap/watch``)
and the closed-loop simulation in :mod:`repro.simulate.closedloop`.
"""

from repro.remap.advisor import RemapAdvisor, RemapCostModel, RemapDecision
from repro.remap.cost import MigrationCostModel
from repro.remap.drift import DriftEvent, DriftWatcher
from repro.remap.plan import RankMove, RemapPlan
from repro.remap.remapper import Remapper

__all__ = [
    "DriftEvent",
    "DriftWatcher",
    "MigrationCostModel",
    "RankMove",
    "RemapAdvisor",
    "RemapCostModel",
    "RemapDecision",
    "RemapPlan",
    "Remapper",
]

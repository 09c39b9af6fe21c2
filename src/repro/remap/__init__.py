"""Online remapping: drift detection, migration cost, remap plans.

The paper's stated future work — *"if system conditions, with regard to
a running application, change, there should be the capability of
generating a new mapping ... taking into account the task remapping
costs"* — as a first-class subsystem:

* :class:`MigrationCostModel` prices a mapping switch as per-rank
  checkpoint transfers over the actual source->destination links
  (:mod:`repro.remap.cost`); :class:`RemapCostModel` is the flat
  per-task baseline behind the same interface;
* :class:`DriftWatcher` turns the monitoring stream (the external
  event) and the executing segment's behaviour (the internal one) into
  thrash-resistant drift events (:mod:`repro.remap.drift`);
* :class:`Remapper` searches candidates warm-started from the current
  mapping (``propose``) and gives the one cost/benefit verdict
  (``decide``): a deterministic :class:`RemapPlan` under the rule
  ``remap <=> predicted_savings > migration_cost * safety_factor``
  (:mod:`repro.remap.remapper`);
* :class:`RemapLoop` is one application's remap state and the one tick
  that advances it (:mod:`repro.remap.loop`) — driven by the daemon's
  watches (:mod:`repro.server.watches`, ``POST /v1/remap/watch``) and
  the closed-loop simulation (:mod:`repro.simulate.closedloop`).
"""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "DriftEvent",
    "DriftWatcher",
    "MigrationCostModel",
    "RankMove",
    "RemapCostModel",
    "RemapLoop",
    "RemapPlan",
    "Remapper",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "cost": ("MigrationCostModel", "RemapCostModel"),
        "drift": ("DriftEvent", "DriftWatcher"),
        "loop": ("RemapLoop",),
        "plan": ("RankMove", "RemapPlan"),
        "remapper": ("Remapper",),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

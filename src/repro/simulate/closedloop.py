"""Closed-loop remapping experiment: drift injection vs remap policy.

The end-to-end validation of :mod:`repro.remap`: run an application on
the ground-truth simulator in *phases*, inject background load through
:class:`~repro.monitoring.load.LoadGenerator` mid-run (the "system
conditions change" of the paper's future-work scenario), and compare
two policies over the *same* injection schedule:

* ``stay`` — keep the initial mapping to the end (the baseline);
* ``remap`` — between phases, :meth:`RemapLoop.step
  <repro.remap.loop.RemapLoop.step>` (the same tick the daemon's
  watches run) at the simulated clock and the remaining work fraction;
  when its plan says remap, *pause the simulated clock for the plan's
  migration cost* and adopt the new mapping at the post-pause time.

Makespans therefore charge the remap policy its own medicine: a switch
only wins if the migration pause is recouped by faster phases — which
is exactly the cost/benefit calculus the subsystem implements.  The
whole loop is deterministic: simulated time only (no wall clocks),
seeded simulator runs, and injected loads restored on exit.

This module is intentionally *not* imported by ``repro.simulate``'s
package ``__init__`` — it sits above :mod:`repro.remap` in the layer
graph while the simulator's contention kernel sits below the core fast
path; import it directly (``from repro.simulate.closedloop import ...``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.mapping import TaskMapping
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.remap import DriftWatcher, RemapLoop, Remapper, RemapPlan

__all__ = ["LoadPhase", "ClosedLoopResult", "run_closed_loop"]


@dataclass(frozen=True)
class LoadPhase:
    """One step of the injection schedule.

    The *events* are applied once the run's progress reaches
    ``at_fraction`` (0.0 injects before the first phase).  A schedule
    is a sequence of these; an empty schedule is the steady scenario.
    """

    at_fraction: float
    events: tuple[LoadEvent, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction < 1.0:
            raise ValueError("at_fraction must be in [0, 1)")


@dataclass(frozen=True)
class ClosedLoopResult:
    """Outcome of one policy's closed-loop run."""

    policy: str
    #: Total simulated time: compute phases plus migration pauses.
    makespan_s: float
    compute_s: float
    migration_s: float
    #: Remaps actually executed (plans with ``remap=True``).
    remaps: int
    #: Drift events the watcher fired (>= remaps; a firing whose plan
    #: said "stay" executes nothing).
    drift_events: int
    #: Every plan evaluated, in firing order (empty for ``stay``).
    decisions: tuple[RemapPlan, ...]
    phase_wall_s: tuple[float, ...]
    final_mapping: TaskMapping


def run_closed_loop(
    service,
    app,
    nprocs: int,
    *,
    mapping: TaskMapping | None = None,
    scenario: Sequence[LoadPhase] = (),
    phases: int = 8,
    policy: str = "remap",
    remapper: Remapper | None = None,
    watcher: DriftWatcher | None = None,
    pool: Sequence[str] | None = None,
    seed: int = 0,
) -> ClosedLoopResult:
    """Run *app* through the phased simulation under one policy.

    *service* is a calibrated :class:`~repro.core.service.CBES` with
    *app* profiled for *nprocs* ranks.  Each phase simulates the whole
    program under the current loads and charges ``total_time / phases``
    of it — the standard piecewise approximation for an iterative
    application whose steps are uniform.  Injected loads are restored
    before returning, even on error, so back-to-back policy runs see
    identical conditions.
    """
    if policy not in ("remap", "stay"):
        raise ValueError("policy must be 'remap' or 'stay'")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    cluster = service.cluster
    node_ids = cluster.node_ids()
    current = mapping if mapping is not None else TaskMapping(node_ids[:nprocs])
    if current.nprocs != nprocs:
        raise ValueError("mapping must place exactly nprocs processes")
    program = app.program(nprocs)
    schedule = sorted(scenario, key=lambda p: p.at_fraction)
    generator = LoadGenerator(cluster)
    # Baseline: what the incumbent mapping was expected to take under
    # pre-injection conditions; the drift signal is predicted/baseline.
    loop = RemapLoop(
        mapping=current,
        baseline_s=service.evaluator(app.name).execution_time(current),
        watcher=watcher or DriftWatcher(),
        remapper=remapper or Remapper(),
        pool=pool,
        seed=seed,
    )

    clock = 0.0
    compute_s = 0.0
    migration_s = 0.0
    decisions: list[RemapPlan] = []
    phase_wall: list[float] = []
    restore: list[tuple[LoadEvent, ...]] = []
    injected = 0
    try:
        for phase in range(phases):
            progress = phase / phases
            while injected < len(schedule) and schedule[injected].at_fraction <= progress:
                restore.append(generator.apply(list(schedule[injected].events)))
                injected += 1
            if policy == "remap":
                evaluator = service.evaluator(app.name)
                fired = loop.step(evaluator, clock, 1.0 - progress)
                if fired is not None:
                    _, plan = fired
                    decisions.append(plan)
                    if plan.remap:
                        # Pause for the migration; the new mapping (and
                        # its cooldown window) starts after the pause.
                        clock += plan.migration_cost_s
                        migration_s += plan.migration_cost_s
                        loop.adopt(plan, evaluator, clock)
            result = service.simulator.run(
                program,
                loop.mapping.as_dict(),
                seed=seed + 101 * phase,
                arch_affinity=app.arch_affinity,
                collect_trace=False,
            )
            wall = result.total_time / phases
            phase_wall.append(wall)
            compute_s += wall
            clock += wall
    finally:
        for prior in reversed(restore):
            generator.apply(list(prior))
    return ClosedLoopResult(
        policy=policy,
        makespan_s=clock,
        compute_s=compute_s,
        migration_s=migration_s,
        remaps=loop.remaps,
        drift_events=loop.drift_events,
        decisions=tuple(decisions),
        phase_wall_s=tuple(phase_wall),
        final_mapping=loop.mapping,
    )

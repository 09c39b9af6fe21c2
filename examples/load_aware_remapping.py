"""Load-aware scheduling and remapping (the paper's future-work story).

A long-running application is mapped by CBES; midway through, background
load lands on one of its nodes.  The monitoring daemons pick the change
up, the evaluator's predictions shift, and ``Remapper.decide`` weighs
migrating against staying — exactly the cost/benefit calculus the system
is named after (here at the flat ``RemapCostModel`` price; drop the
``cost_model`` argument for checkpoint-over-link pricing).

Run:  python examples/load_aware_remapping.py
"""

from repro import CBES, orange_grove
from repro.monitoring import LoadEvent, LoadGenerator
from repro.remap import RemapCostModel, Remapper
from repro.schedulers import CbesScheduler
from repro.workloads import Aztec


def main() -> None:
    cluster = orange_grove()
    service = CBES(cluster)
    service.calibrate(seed=1)
    service.start_monitoring(forecaster="adaptive", sensor_noise=0.01, seed=2)

    app = Aztec(500)
    service.profile_application(app, nprocs=8, seed=0)

    # Initial scheduling on an idle system.
    pool = cluster.nodes_by_arch("pii-400")
    service.monitor.poll(rounds=3)
    initial = service.schedule(app.name, CbesScheduler(), pool, seed=5)
    print(f"initial mapping: {list(initial.mapping)}")
    print(f"predicted time: {initial.predicted_time:.1f} s")

    # Background load lands on two of the mapped nodes mid-run.
    victims = list(initial.mapping)[:2]
    load = LoadGenerator(cluster)
    # The Intel nodes are dual-CPU, so the hog must exceed one full CPU
    # before the application's share suffers.
    load.apply([LoadEvent(nid, cpu_load=1.8, nic_load=0.3) for nid in victims])
    print(f"\n*** background load hits {victims} ***")

    # The monitor needs a few polling periods to notice.
    service.monitor.poll(rounds=5)
    snapshot = service.monitor.snapshot()
    for nid in victims:
        print(f"monitor sees {nid}: ACPU={snapshot.acpu(nid) * 100:.0f}%")

    stale = service.evaluator(app.name, snapshot=snapshot).execution_time(initial.mapping)
    print(f"remaining-run prediction under load: {stale:.1f} s "
          f"(+{(stale - initial.predicted_time) / initial.predicted_time * 100:.0f}%)")

    # Find a candidate replacement mapping and weigh the migration.
    candidate = service.schedule(app.name, CbesScheduler(), pool, seed=6)
    remapper = Remapper(
        cost_model=RemapCostModel(fixed_s=2.0, per_task_s=1.0), safety_factor=1.0
    )
    for remaining in (0.9, 0.25, 0.05):
        plan = remapper.decide(
            service.evaluator(app.name, snapshot=snapshot),
            initial.mapping,
            candidate.mapping,
            fraction_remaining=remaining,
        )
        verdict = "REMAP" if plan.remap else "stay"
        print(
            f"{remaining * 100:3.0f}% of run remaining: {verdict:5s} "
            f"(stay {plan.current_remaining_s:.1f} s vs move "
            f"{plan.candidate_remaining_s:.1f} s + {plan.migration_cost_s:.1f} s migration, "
            f"net benefit {plan.net_benefit_s:+.1f} s)"
        )


if __name__ == "__main__":
    main()

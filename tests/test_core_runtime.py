"""Tests for the remap triggers and per-segment scheduling.

``TestRemapTriggers`` keeps its name (and test ids) from the second
remap driver it used to cover: the external and the internal event are
now the two sources of the one ``DriftWatcher``, driven by
``RemapLoop.step`` (launch = ``service.schedule`` + a ``RemapLoop``,
progress = ``fraction_remaining``, flat pricing = the remapper's cost
model).
"""

import pytest

from repro.cluster import orange_grove
from repro.core import CBES, CbesError, SegmentScheduler, TaskMapping
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.remap import DriftWatcher, RemapCostModel, RemapLoop, Remapper
from repro.remap.drift import behaviour_drift
from repro.schedulers import AnnealingSchedule, CbesScheduler
from repro.workloads import LU, IrregularApplication, PhasedApplication

FAST_SA = AnnealingSchedule(moves_per_temperature=20, steps=12, patience=4)


@pytest.fixture(scope="module")
def setup():
    cluster = orange_grove()
    service = CBES(cluster)
    service.calibrate(seed=1)
    app = LU("A")
    service.profile_application(
        app, 8, mapping=TaskMapping(cluster.nodes_by_arch("alpha-533")), seed=0
    )
    return cluster, service, app


def launch(service, app, pool, *, seed):
    """Schedule *app* on *pool* and watch it at the flat migration price."""
    result = service.schedule(
        app.name, CbesScheduler(schedule=FAST_SA, restarts=1), pool, seed=seed
    )
    return RemapLoop(
        mapping=result.mapping,
        baseline_s=result.predicted_time,
        watcher=DriftWatcher(threshold=0.08),
        remapper=Remapper(
            cost_model=RemapCostModel(fixed_s=0.5, per_task_s=0.2),
            safety_factor=1.0,
            schedule=FAST_SA,
            restarts=2,
        ),
        pool=pool,
        seed=seed + 1,
    )


def old_internal_trigger(profile, segment, threshold):
    """``RemapTrigger.internal`` as the deleted driver wrote it: the oracle."""
    seg_profile = profile.segments.get(segment)
    if seg_profile is None:
        return False
    _, whole_comm = profile.comp_comm_ratio
    _, seg_comm = seg_profile.comp_comm_ratio
    base = max(whole_comm, 1e-6)
    if abs(seg_comm - base) / base > threshold:
        return True
    whole = [p.compute_time for p in profile.processes]
    seg = [p.compute_time for p in seg_profile.processes]
    whole_total, seg_total = sum(whole), sum(seg)
    if whole_total <= 0 or seg_total <= 0:
        return False
    distance = sum(
        abs(w / whole_total - s / seg_total) for w, s in zip(whole, seg, strict=False)
    )
    return distance > threshold


class TestRemapTriggers:
    def test_no_trigger_on_stable_system(self, setup):
        cluster, service, app = setup
        loop = launch(service, app, cluster.nodes_by_arch("alpha-533"), seed=2)
        assert loop.step(service.evaluator(app.name), 1.0) is None

    def test_external_trigger_on_load(self, setup):
        cluster, service, app = setup
        pool = cluster.nodes_by_arch("alpha-533") + cluster.nodes_by_arch("pii-400")
        loop = launch(service, app, pool, seed=4)
        victim = loop.mapping.node_of(0)
        with LoadGenerator(cluster).loaded([LoadEvent(victim, cpu_load=1.5)]):
            evaluator = service.evaluator(app.name)
            event, decision = loop.step(evaluator, 1.0, 0.7)
            assert event.degradation > 0.08
            assert decision.remap
            loop.adopt(decision, evaluator, 1.0)
        assert loop.remaps == 1
        assert victim not in loop.mapping.nodes_used()
        # The verdict is a RemapPlan at the flat price.
        assert loop.mapping == decision.candidate
        assert decision.migration_cost_s == pytest.approx(0.5 + 0.2 * len(decision.moves))
        assert decision.savings_s > decision.migration_cost_s

    def test_no_remap_when_nearly_done(self, setup):
        cluster, service, app = setup
        pool = cluster.nodes_by_arch("alpha-533") + cluster.nodes_by_arch("pii-400")
        loop = launch(service, app, pool, seed=6)
        victim = loop.mapping.node_of(0)
        with LoadGenerator(cluster).loaded([LoadEvent(victim, cpu_load=1.5)]):
            _, decision = loop.step(service.evaluator(app.name), 1.0, 0.005)
        assert not decision.remap  # migration cost outweighs the tail

    def test_finished_app_never_checked(self, setup):
        """No work left is not a tick: refused, and the loop is unchanged."""
        cluster, service, app = setup
        loop = launch(service, app, cluster.nodes_by_arch("alpha-533"), seed=8)
        before = loop.to_dict()
        with pytest.raises(ValueError, match="fraction_remaining"):
            loop.step(service.evaluator(app.name), 1.0, 0.0)
        assert loop.to_dict() == before
        assert loop.watcher.armed

    def test_trigger_thresholds_validated(self):
        with pytest.raises(ValueError):
            DriftWatcher(threshold=0.0)
        with pytest.raises(ValueError):
            DriftWatcher(behaviour_threshold=-1.0)

    def test_internal_trigger_on_segment_change(self, setup):
        cluster, service, _ = setup
        app = PhasedApplication()
        service.profile_application(
            app, 8, mapping=TaskMapping(cluster.nodes_by_arch("alpha-533")),
            seed=0, per_segment=True,
        )
        profile = service.profile(app.name)
        fired = [
            seg for seg, active in profile.segments.items()
            if behaviour_drift(profile, active) > 0.5
        ]
        # The comm-heavy setup and the compute-only solve both deviate
        # from the whole-run mix.
        assert fired

    @pytest.mark.parametrize(
        "app",
        [PhasedApplication(), IrregularApplication(drift=1.0, imbalance=0.8, structure_seed=9)],
        ids=["phased", "irregular"],
    )
    def test_behaviour_drift_gives_the_old_internal_verdict(self, setup, app):
        cluster, service, _ = setup
        profile = service.profile_application(
            app, 8, mapping=TaskMapping(cluster.nodes_by_arch("alpha-533")),
            seed=0, per_segment=True,
        )
        assert len(profile.segments) >= 2
        for threshold in (0.1, 0.25, 0.5, 1.0):
            for segment, active in profile.segments.items():
                assert (behaviour_drift(profile, active) > threshold) is (
                    old_internal_trigger(profile, segment, threshold)
                ), (threshold, segment)


class TestSegmentScheduler:
    @pytest.fixture(scope="class")
    def seg_setup(self):
        cluster = orange_grove()
        service = CBES(cluster)
        service.calibrate(seed=1)
        app = PhasedApplication()
        service.profile_application(
            app, 8, mapping=TaskMapping(cluster.nodes_by_arch("alpha-533")),
            seed=0, per_segment=True,
        )
        pool = cluster.nodes_by_arch("alpha-533") + cluster.nodes_by_arch("pii-400")
        return service, app, SegmentScheduler(
            service, CbesScheduler(schedule=FAST_SA, restarts=1), pool=pool
        )

    def test_schedules_every_segment(self, seg_setup):
        service, app, scheduler = seg_setup
        plans = scheduler.schedule_all(app.name, seed=1)
        assert set(plans) == set(service.profile(app.name).segments)
        for plan in plans.values():
            assert plan.predicted_time > 0
            assert plan.mapping.nprocs == 8

    def test_plans_cached(self, seg_setup):
        _, app, scheduler = seg_setup
        a = scheduler.schedule_segment(app.name, 0, seed=1)
        b = scheduler.schedule_segment(app.name, 0, seed=999)
        assert a is b

    def test_missing_segment_rejected(self, seg_setup):
        _, app, scheduler = seg_setup
        with pytest.raises(CbesError):
            scheduler.schedule_segment(app.name, 99)

    def test_unsegmented_profile_rejected(self, setup, seg_setup):
        _, service, app = setup
        _, _, scheduler_other = seg_setup
        scheduler = SegmentScheduler(
            service, CbesScheduler(schedule=FAST_SA, restarts=1),
            pool=service.cluster.nodes_by_arch("alpha-533"),
        )
        with pytest.raises(CbesError):
            scheduler.schedule_all(app.name)

    def test_amortization_accounting(self, seg_setup):
        _, app, scheduler = seg_setup
        plan = scheduler.schedule_segment(app.name, 2, seed=1)
        assert plan.amortized_overhead(100) == pytest.approx(plan.scheduler_time_s / 100)
        with pytest.raises(ValueError):
            plan.amortized_overhead(0)
        # A segment repeated many times pays for its scheduling as long
        # as the per-repetition gain is positive.
        assert plan.worthwhile(10_000, baseline_time=plan.predicted_time * 1.05)
        assert not plan.worthwhile(1, baseline_time=plan.predicted_time * 1.0001)

"""Tests for runtime application monitoring and per-segment scheduling."""

import pytest

from repro.cluster import orange_grove
from repro.core import (
    CBES,
    CbesError,
    RemapCostModel,
    RemapTrigger,
    RuntimeScheduler,
    SegmentScheduler,
    TaskMapping,
)
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.remap import Remapper
from repro.schedulers import AnnealingSchedule, CbesScheduler
from repro.workloads import LU, PhasedApplication

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


def make_runtime(service, pool, **kwargs):
    return RuntimeScheduler(
        service,
        CbesScheduler(schedule=FAST_SA, restarts=1),
        pool=pool,
        remapper=Remapper(
            cost_model=RemapCostModel(fixed_s=0.5, per_task_s=0.2), safety_factor=1.0
        ),
        **kwargs,
    )


class TestRunningApplication:
    def test_progress_accumulates_and_caps(self, setup):
        cluster, service, app = setup
        runtime = make_runtime(service, cluster.nodes_by_arch("alpha-533"))
        running = runtime.launch(app.name, seed=1)
        running.advance(0.6)
        running.advance(0.6)
        assert running.progress == 1.0
        assert running.finished

    def test_advance_validation(self, setup):
        cluster, service, app = setup
        runtime = make_runtime(service, cluster.nodes_by_arch("alpha-533"))
        running = runtime.launch(app.name, seed=1)
        with pytest.raises(ValueError):
            running.advance(-0.1)

    def test_unknown_app_rejected(self, setup):
        cluster, service, _ = setup
        runtime = make_runtime(service, cluster.nodes_by_arch("alpha-533"))
        with pytest.raises(CbesError):
            runtime.running("ghost")


class TestRemapTriggers:
    def test_no_trigger_on_stable_system(self, setup):
        cluster, service, app = setup
        runtime = make_runtime(service, cluster.nodes_by_arch("alpha-533"))
        runtime.launch(app.name, seed=2)
        assert runtime.check(app.name, seed=3) is None

    def test_external_trigger_on_load(self, setup):
        cluster, service, app = setup
        pool = cluster.nodes_by_arch("alpha-533") + cluster.nodes_by_arch("pii-400")
        runtime = make_runtime(service, pool)
        running = runtime.launch(app.name, seed=4)
        running.advance(0.3)
        victim = running.mapping.node_of(0)
        generator = LoadGenerator(cluster)
        with generator.loaded([LoadEvent(victim, cpu_load=1.5)]):
            decision = runtime.check(app.name, seed=5)
        assert decision is not None
        assert decision.remap
        assert running.remap_count == 1
        assert victim not in running.mapping.nodes_used()
        # The verdict is a RemapPlan at the flat price.
        assert running.mapping == decision.candidate
        assert decision.migration_cost_s == pytest.approx(0.5 + 0.2 * len(decision.moves))
        assert decision.savings_s > decision.migration_cost_s

    def test_no_remap_when_nearly_done(self, setup):
        cluster, service, app = setup
        pool = cluster.nodes_by_arch("alpha-533") + cluster.nodes_by_arch("pii-400")
        runtime = make_runtime(service, pool)
        running = runtime.launch(app.name, seed=6)
        running.advance(0.995)
        victim = running.mapping.node_of(0)
        generator = LoadGenerator(cluster)
        with generator.loaded([LoadEvent(victim, cpu_load=1.5)]):
            decision = runtime.check(app.name, seed=7)
        assert decision is not None
        assert not decision.remap  # migration cost outweighs the tail

    def test_finished_app_never_checked(self, setup):
        cluster, service, app = setup
        runtime = make_runtime(service, cluster.nodes_by_arch("alpha-533"))
        running = runtime.launch(app.name, seed=8)
        running.advance(1.0)
        assert runtime.check(app.name) is None

    def test_trigger_thresholds_validated(self):
        with pytest.raises(ValueError):
            RemapTrigger(prediction_drift=0.0)
        with pytest.raises(ValueError):
            RemapTrigger(behaviour_drift=-1.0)

    def test_internal_trigger_on_segment_change(self, setup):
        cluster, service, _ = setup
        app = PhasedApplication()
        service.profile_application(
            app, 8, mapping=TaskMapping(cluster.nodes_by_arch("alpha-533")),
            seed=0, per_segment=True,
        )
        profile = service.profile(app.name)
        trigger = RemapTrigger(behaviour_drift=0.5)
        fired = [seg for seg in profile.segments if trigger.internal(profile, seg)]
        # The comm-heavy setup and the compute-only solve both deviate
        # from the whole-run mix.
        assert fired


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

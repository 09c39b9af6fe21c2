"""Tests for the CBES service facade."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.core.service as service_module
from repro.core import (
    CBES,
    EvaluationOptions,
    NotCalibratedError,
    TaskMapping,
    UnknownProfileError,
)
from repro.cluster import single_switch
from repro.cluster.latency import LatencyModel
from repro.core.fast_eval import EvaluationContext
from repro.schedulers import CbesScheduler, NoCommScheduler, RandomScheduler
from repro.workloads import CG, LU, SyntheticBenchmark


@pytest.fixture
def service():
    svc = CBES(single_switch("mini", 6))
    svc.calibrate(seed=2)
    return svc


@pytest.fixture
def app():
    return SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)


class TestLifecycle:
    def test_calibration_requires_unloaded_system(self):
        cluster = single_switch("mini", 4)
        cluster.node("mini-n00").set_background_load(0.5)
        with pytest.raises(NotCalibratedError, match="unloaded"):
            CBES(cluster).calibrate()

    def test_profile_requires_calibration(self, app):
        svc = CBES(single_switch("mini", 4))
        with pytest.raises(NotCalibratedError):
            svc.profile_application(app, 2)

    def test_evaluator_requires_calibration(self):
        svc = CBES(single_switch("mini", 4))
        with pytest.raises(NotCalibratedError):
            svc.evaluator("anything")

    def test_monitor_property_requires_attach(self, service):
        with pytest.raises(NotCalibratedError):
            _ = service.monitor

    def test_start_monitoring(self, service):
        monitor = service.start_monitoring(forecaster="last-value")
        assert service.monitor is monitor
        snap = service.snapshot()  # auto-polls once
        assert snap.acpu(service.cluster.node_ids()[0]) > 0

    def test_start_monitoring_is_idempotent(self, service):
        first = service.start_monitoring(forecaster="last-value")
        second = service.start_monitoring(forecaster="mean", seed=7)
        assert second is first  # repeated starts reuse the attached daemons

    def test_stop_monitoring_detaches(self, service):
        assert not service.is_monitoring
        service.stop_monitoring()  # no-op before start
        assert not service.is_monitoring
        first = service.start_monitoring(forecaster="last-value")
        assert service.is_monitoring
        service.stop_monitoring()
        assert not service.is_monitoring
        with pytest.raises(NotCalibratedError):
            _ = service.monitor
        # A fresh start after stop attaches new daemons.
        assert service.start_monitoring(forecaster="last-value") is not first


class TestProfiles:
    def test_profile_registration(self, service, app):
        profile = service.profile_application(app, 3, seed=1)
        assert app.name in service.profiled_applications
        assert service.profile(app.name) is profile
        assert profile.nprocs == 3

    def test_unknown_profile(self, service):
        with pytest.raises(UnknownProfileError):
            service.profile("ghost")

    def test_profile_has_speed_ratios(self, service, app):
        profile = service.profile_application(app, 2, seed=1)
        assert set(profile.arch_speed_ratios) == set(service.cluster.architectures())

    def test_custom_profiling_mapping(self, service, app):
        nodes = service.cluster.node_ids()
        mapping = TaskMapping([nodes[3], nodes[1]])
        profile = service.profile_application(app, 2, mapping=mapping)
        assert profile.profile_mapping == {0: nodes[3], 1: nodes[1]}

    def test_lambda_values_reasonable(self, service, app):
        profile = service.profile_application(app, 4, seed=1)
        for proc in profile.processes:
            assert 0.0 <= proc.lam < 20.0


class TestComparisonRequests:
    def test_compare_orders_results(self, service, app):
        service.profile_application(app, 2, seed=1)
        nodes = service.cluster.node_ids()
        results = service.compare(
            app.name, [TaskMapping(nodes[:2]), TaskMapping(nodes[2:4])]
        )
        assert len(results) == 2
        assert results[0].execution_time <= results[1].execution_time

    def test_evaluator_with_options(self, service, app):
        service.profile_application(app, 2, seed=1)
        ev = service.evaluator(app.name, options=EvaluationOptions(communication=False))
        m = TaskMapping(service.cluster.node_ids()[:2])
        assert ev.predict(m).breakdown(0).communication == 0.0

    def test_schedule_with_external_scheduler(self, service, app):
        service.profile_application(app, 2, seed=1)
        result = service.schedule(app.name, RandomScheduler(), service.cluster.node_ids())
        assert result.mapping.nprocs == 2
        assert result.predicted_time > 0


def outcome(result) -> tuple:
    """What a seeded search decides, without its wall time."""
    return result.mapping.as_tuple(), result.predicted_time, result.evaluations, result.history


class TestContextCache:
    """In-process ``schedule()`` calls share the current generation's contexts."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``EvaluationContext`` built while the test runs."""
        built = []
        build = EvaluationContext.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(EvaluationContext, "__init__", counted)
        return built

    def test_calls_on_one_snapshot_build_one_context(self, service, app, built):
        service.profile_application(app, 3, seed=1)
        pool = service.cluster.node_ids()
        cached = [outcome(service.schedule(app.name, CbesScheduler(), pool, seed=s)) for s in range(4)]
        assert len(built) == 1
        # A changed load is a new generation: exactly one more build.
        service.cluster.node(pool[0]).set_background_load(1.5)
        loaded = outcome(service.schedule(app.name, CbesScheduler(), pool, seed=0))
        assert len(built) == 2
        assert built[1].snapshot_fingerprint == service.snapshot().fingerprint()
        assert built[0].snapshot_fingerprint != built[1].snapshot_fingerprint
        # The cached context answers what a cold evaluator does.
        assert loaded == outcome(CbesScheduler().schedule(service.evaluator(app.name), pool, seed=0))
        service.cluster.node(pool[0]).set_background_load(0.0)
        for seed, result in enumerate(cached):
            cold = CbesScheduler().schedule(service.evaluator(app.name), pool, seed=seed)
            assert result == outcome(cold)

    def test_concurrent_misses_share_one_build(self, service, app, built, monkeypatch):
        """Threads asking one generation for one context at once build it once."""
        service.profile_application(app, 3, seed=1)
        generation = service.adopt(service.snapshot().freeze())
        counted = EvaluationContext.__init__

        def slow(self, *args, **kwargs):  # widens the race: a build yields the GIL
            time.sleep(0.01)
            counted(self, *args, **kwargs)

        monkeypatch.setattr(EvaluationContext, "__init__", slow)
        start = threading.Barrier(8)

        def lookup(_):
            start.wait(timeout=30)
            return generation.context(app.name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                contexts = list(pool.map(lookup, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 1
        assert all(context is built[0] for context in contexts)

    def test_a_miss_is_built_inside_the_timed_search(self, service, app, monkeypatch):
        """A schedule() that builds its context reports the build in its wall time."""
        service.profile_application(app, 3, seed=1)
        pool = service.cluster.node_ids()
        service.schedule(app.name, CbesScheduler(), pool, seed=1)  # first-call costs
        build = EvaluationContext.__init__

        def slow(self, *args, **kwargs):  # several times a warm search
            time.sleep(0.25)
            build(self, *args, **kwargs)

        monkeypatch.setattr(EvaluationContext, "__init__", slow)
        service.cluster.node(pool[0]).set_background_load(1.5)  # a new generation
        assert service.schedule(app.name, CbesScheduler(), pool, seed=1).wall_time_s >= 0.25

    def test_concurrent_adopters_of_a_new_snapshot_share_one_generation(
        self, service, monkeypatch
    ):
        snapshot = service.snapshot().freeze()

        class Slow(service_module.Generation):  # widens the race between check and replace
            def __init__(self, *args):
                time.sleep(0.01)
                super().__init__(*args)

        monkeypatch.setattr(service_module, "Generation", Slow)
        start = threading.Barrier(8)

        def adopt(_):
            start.wait(timeout=30)
            return service.adopt(snapshot)

        with ThreadPoolExecutor(8) as pool:
            generations = list(pool.map(adopt, range(8), timeout=60))
        assert all(generation is generations[0] for generation in generations)

    def test_a_reprofiled_application_is_built_from_its_new_profile(self, service, app, built):
        """Re-profiling under the same name (``ExperimentContext.ensure_profiled``
        at another ``nprocs``) on an unchanged snapshot rebuilds the context."""
        pool = service.cluster.node_ids()
        service.profile_application(app, 3, seed=1)
        service.schedule(app.name, CbesScheduler(), pool, seed=1)
        service.profile_application(app, 4, seed=1)
        result = service.schedule(app.name, CbesScheduler(), pool, seed=1)
        assert len(built) == 2
        assert built[1].profile is service.profile(app.name)
        assert result.mapping.nprocs == 4
        fresh = CBES(single_switch("mini", 6))
        fresh.calibrate(seed=2)
        fresh.profile_application(app, 4, seed=1)
        assert outcome(result) == outcome(fresh.schedule(app.name, CbesScheduler(), pool, seed=1))


class TestSystemTables:
    """A context is a view over its generation's system half: the pair tables
    are computed once per latency model, and an application builds only its own."""

    @pytest.fixture
    def tables_built(self, monkeypatch):
        """The host counts of every ``LatencyModel.component_tables`` call."""
        calls = []
        build = LatencyModel.component_tables

        def counted(model, hosts):
            calls.append(len(hosts))
            return build(model, hosts)

        monkeypatch.setattr(LatencyModel, "component_tables", counted)
        return calls

    def test_a_second_app_and_a_load_only_refresh_compute_no_pair_table(
        self, service, tables_built
    ):
        for app in (LU("A"), CG("A")):
            service.profile_application(app, 4, seed=1)
        held = service.adopt(service.snapshot().freeze())
        lu = held.context("lu.A")
        assert tables_built == [6]
        cg = held.context("cg.A")  # a second app on a held generation
        idle = held.context("cg.A", EvaluationOptions(load_adjusted_latency=False))
        assert tables_built == [6]
        assert cg._a_src is lu._a_src and cg._comp_flat is lu._comp_flat
        assert idle._a_net is lu._a_net and idle._binv is lu._beta
        node = service.cluster.node(service.cluster.node_ids()[0])
        node.set_background_load(1.5)
        node.set_nic_load(0.4)
        refreshed = service.adopt(service.snapshot().freeze())
        assert refreshed is not held
        again = refreshed.context("lu.A")  # a load-only refresh
        assert tables_built == [6]
        assert again._a_src is lu._a_src and again._binv is not lu._binv
        pool = service.cluster.node_ids()
        ncs = service.schedule("lu.A", NoCommScheduler(), pool, seed=1)  # its energy options too
        assert tables_built == [6]
        energy = refreshed.contexts["lu.A", NoCommScheduler.energy_options]
        assert energy.system is again.system and not any(energy.groups)
        cold = NoCommScheduler().schedule(service.evaluator("lu.A"), pool, seed=1)
        assert outcome(ncs) == outcome(cold)
        mapping = TaskMapping(pool[:4])
        assert again.rows(mapping) == service.evaluator("lu.A").fast_context().rows(mapping)
        assert tables_built == [6, 6, 6]  # the cold factories build both halves
        service.cluster.clear_loads()
        service.calibrate(seed=3)  # a new latency model: new pair tables
        service.adopt(service.snapshot().freeze()).context("cg.A")
        assert tables_built == [6, 6, 6, 6]

    def test_a_cpu_only_refresh_keeps_the_slopes_and_a_nic_change_rebuilds_them(
        self, service, app
    ):
        service.profile_application(app, 4, seed=1)
        off = EvaluationOptions(load_adjusted_latency=False)
        node = service.cluster.node(service.cluster.node_ids()[0])
        node.set_nic_load(0.3)  # the kept slopes are not the idle ones
        held = service.adopt(service.snapshot().freeze())
        loaded, idle = held.context(app.name), held.context(app.name, off)
        node.set_background_load(1.5)  # CPU only
        cpu = service.adopt(service.snapshot().freeze())
        assert cpu is not held
        kept = cpu.context(app.name)
        assert kept._binv is loaded._binv and kept._comp_flat is loaded._comp_flat
        assert cpu.context(app.name, off)._comp_flat is idle._comp_flat
        node.set_nic_load(0.6)
        nic = service.adopt(service.snapshot().freeze())
        moved = nic.context(app.name)
        assert moved._binv is not kept._binv and moved._binv != kept._binv
        assert nic.context(app.name, off)._comp_flat is idle._comp_flat  # reads no NIC load
        mappings = [TaskMapping(service.cluster.node_ids()[k:k + 4]) for k in range(3)]
        for generation, context in ((cpu, kept), (nic, moved)):
            cold = service.evaluator(app.name, snapshot=generation.snapshot).fast_context()
            assert (context._binv, context._comp_flat) == (cold._binv, cold._comp_flat)
            assert [context.rows(m) for m in mappings] == [cold.rows(m) for m in mappings]

    def test_a_context_refuses_the_system_half_of_another_generation(self, service, app):
        profile = service.profile_application(app, 3, seed=1)
        held = service.adopt(service.snapshot().freeze())
        nodes, model = service.cluster.nodes, held.latency_model
        own = (profile, model, nodes, held.snapshot)
        assert EvaluationContext(*own, system=held.system).system is held.system
        fewer = {nid: nodes[nid] for nid in sorted(nodes)[:4]}
        other = service.snapshot().freeze()
        for args in (
            (profile, model, fewer, held.snapshot),
            (profile, LatencyModel.from_dict(model.to_dict()), nodes, held.snapshot),
            (profile, model, nodes, other),
        ):
            with pytest.raises(ValueError, match="system tables of another"):
                EvaluationContext(*args, system=held.system)


class TestPredictionAccuracy:
    def test_prediction_close_to_measurement(self, service, app):
        """End-to-end: profile once, predict, measure — low error."""
        service.profile_application(app, 4, seed=0)
        nodes = service.cluster.node_ids()
        mapping = TaskMapping(nodes[:4])
        predicted = service.evaluator(app.name).execution_time(mapping)
        measured = service.simulator.run(
            app.program(4), mapping.as_dict(), seed=99, arch_affinity=app.arch_affinity
        ).total_time
        assert predicted == pytest.approx(measured, rel=0.08)

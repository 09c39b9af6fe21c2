"""Tests for the online-remapping subsystem (``repro.remap``).

Covers the three pieces and their composition: the topology-aware
migration cost model (scalar reference vs vectorized fast-eval diff
path), the hysteresis/cooldown drift watcher, the warm-started
remapper (including decision determinism across search parallelism),
the one remap tick (``RemapLoop.step`` / ``adopt``), and the closed-loop
simulation experiment.
"""

import math

import pytest

from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.remap import DriftWatcher, MigrationCostModel, RemapLoop, Remapper
from repro.remap.drift import DRIFT_EVENTS_TOTAL
from repro.simulate.closedloop import LoadPhase, run_closed_loop
from repro.telemetry import MetricsRegistry, use_registry
from repro.workloads import LU, PhasedApplication, SyntheticBenchmark


NNODES = 8
NPROCS = 4


def make_service(duration_s: float = 120.0):
    """A calibrated 8-node service with one profiled synthetic app."""
    service = CBES(single_switch("rm", NNODES))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.25, duration_s=duration_s, steps=4)
    service.profile_application(app, NPROCS, seed=1)
    return service, app


@pytest.fixture(scope="module")
def service_and_app():
    return make_service()


@pytest.fixture(scope="module")
def phased_service():
    """The same cluster with a per-segment profile (three phases)."""
    service = CBES(single_switch("rm", NNODES))
    service.calibrate(seed=2)
    app = PhasedApplication()
    service.profile_application(app, NPROCS, seed=1, per_segment=True)
    return service, app


@pytest.fixture(scope="module")
def profiled(service_and_app):
    service, app = service_and_app
    return service.profile(app.name)


class TestMigrationCostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationCostModel(quiesce_s=-1.0)
        with pytest.raises(ValueError):
            MigrationCostModel(checkpoint_base_bytes=-1.0)
        with pytest.raises(ValueError):
            MigrationCostModel(checkpoint_traffic_fraction=-0.1)

    def test_checkpoint_bytes_track_profiled_traffic(self, profiled):
        model = MigrationCostModel(
            checkpoint_base_bytes=1024.0, checkpoint_traffic_fraction=0.5
        )
        sizes = model.checkpoint_bytes(profiled)
        assert len(sizes) == NPROCS
        for size, proc in zip(sizes, profiled.processes, strict=True):
            assert size == 1024.0 + 0.5 * proc.bytes_sent

    def test_zero_move_candidate_costs_exactly_zero(self, service_and_app, profiled):
        """The no-diff plan is free: no fixed cost, no transfers."""
        service, app = service_and_app
        evaluator = service.evaluator(app.name)
        mapping = TaskMapping(service.cluster.node_ids()[:NPROCS])
        model = MigrationCostModel()
        moves = model.moves(profiled, evaluator.latency_model, mapping, mapping)
        assert moves == ()
        assert model.total_cost(moves) == 0.0

    def test_all_ranks_move_charges_every_rank(self, service_and_app, profiled):
        service, app = service_and_app
        evaluator = service.evaluator(app.name)
        nodes = service.cluster.node_ids()
        current = TaskMapping(nodes[:NPROCS])
        candidate = TaskMapping(nodes[NPROCS : 2 * NPROCS])  # disjoint: all move
        model = MigrationCostModel()
        moves = model.moves(
            profiled, evaluator.latency_model, current, candidate,
            snapshot=evaluator.snapshot,
        )
        assert [m.rank for m in moves] == list(range(NPROCS))
        assert all(m.seconds > 0.0 for m in moves)
        total = model.total_cost(moves)
        assert total > model.fixed_s
        assert total == pytest.approx(model.fixed_s + sum(m.seconds for m in moves))

    def test_mismatched_mappings_rejected(self, service_and_app, profiled):
        service, app = service_and_app
        evaluator = service.evaluator(app.name)
        nodes = service.cluster.node_ids()
        with pytest.raises(ValueError):
            MigrationCostModel().moves(
                profiled,
                evaluator.latency_model,
                TaskMapping(nodes[:NPROCS]),
                TaskMapping(nodes[: NPROCS - 1]),
            )

    @pytest.mark.parametrize("load_adjusted", [True, False])
    def test_vectorized_diff_matches_scalar_reference(self, load_adjusted):
        """The fast-eval diff path reproduces per-move costs to 1e-9."""
        service, app = make_service()
        generator = LoadGenerator(service.cluster)
        nodes = service.cluster.node_ids()
        events = [
            LoadEvent(nodes[0], cpu_load=1.5, nic_load=0.3),
            LoadEvent(nodes[5], cpu_load=0.5),
        ]
        with generator.loaded(events):
            evaluator = service.evaluator(app.name)
            context = evaluator.fast_context(evaluator.options)
            model = MigrationCostModel(load_adjusted=load_adjusted)
            current = TaskMapping(nodes[:NPROCS])
            candidate = TaskMapping([nodes[5], nodes[1], nodes[6], nodes[7]])
            scalar = model.moves(
                service.profile(app.name),
                evaluator.latency_model,
                current,
                candidate,
                snapshot=evaluator.snapshot,
            )
            vector = model.moves_from_context(context, current, candidate)
        assert len(scalar) == len(vector) == 3  # rank 1 stays on nodes[1]
        for s, v in zip(scalar, vector, strict=True):
            assert (s.rank, s.source, s.destination) == (v.rank, v.source, v.destination)
            assert s.checkpoint_bytes == v.checkpoint_bytes
            # Float association differs (precomputed beta/(1-nic) slope
            # vs the scalar division), so bit-equality is not expected.
            assert math.isclose(s.seconds, v.seconds, rel_tol=1e-9)


class TestDriftWatcher:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftWatcher(threshold=0.0)
        with pytest.raises(ValueError):
            DriftWatcher(hysteresis=1.5)
        with pytest.raises(ValueError):
            DriftWatcher(cooldown_s=-1.0)

    def test_flat_series_never_fires(self):
        watcher = DriftWatcher(threshold=0.10)
        for tick in range(50):
            assert watcher.observe(float(tick), 100.0, 100.0) is None
        assert watcher.events == 0
        assert watcher.armed

    def test_fires_once_then_rearms_below_low_water_mark(self):
        watcher = DriftWatcher(threshold=0.10, hysteresis=0.5)
        event = watcher.observe(1.0, 120.0, 100.0)  # +20% drift
        assert event is not None
        assert event.degradation == pytest.approx(0.20)
        # Still degraded: disarmed, no refire.
        assert watcher.observe(2.0, 125.0, 100.0) is None
        # Receded, but above threshold * hysteresis: still disarmed.
        assert watcher.observe(3.0, 108.0, 100.0) is None
        assert watcher.observe(4.0, 120.0, 100.0) is None
        # Below the low-water mark (5%): re-arm, then fire again.
        assert watcher.observe(5.0, 104.0, 100.0) is None
        assert watcher.observe(6.0, 120.0, 100.0) is not None
        assert watcher.events == 2

    def test_cooldown_suppresses_back_to_back_firings(self):
        watcher = DriftWatcher(threshold=0.10, hysteresis=0.5, cooldown_s=10.0)
        assert watcher.observe(1.0, 120.0, 100.0) is not None
        # Recede (re-arm) then cross again within the cooldown window.
        assert watcher.observe(2.0, 100.0, 100.0) is None
        assert watcher.observe(3.0, 130.0, 100.0) is None  # suppressed
        assert watcher.armed  # suppression does not consume the arm
        # Past the cooldown the same signal fires.
        assert watcher.observe(12.0, 130.0, 100.0) is not None
        assert watcher.events == 2

    def test_rebase_restarts_cooldown_and_history(self):
        watcher = DriftWatcher(threshold=0.10, cooldown_s=5.0)
        assert watcher.observe(1.0, 150.0, 100.0) is not None
        watcher.rebase(2.0)
        assert watcher.armed
        # Inside the post-remap cooldown: suppressed despite huge drift.
        assert watcher.observe(4.0, 200.0, 100.0) is None
        assert watcher.observe(8.0, 200.0, 100.0) is not None

    def test_behaviour_is_a_second_source_under_the_same_guards(self):
        """The internal signal alone fires, and is armed, re-armed and
        cooled down exactly as the degradation is."""
        with pytest.raises(ValueError):
            DriftWatcher(behaviour_threshold=0.0)
        watcher = DriftWatcher(hysteresis=0.5, cooldown_s=10.0, behaviour_threshold=0.5)
        event = watcher.observe(1.0, 100.0, 100.0, 0.9)
        assert (event.behaviour, event.degradation) == (0.9, 0.0)
        # Still high, then receded but above the low-water mark (0.25):
        # disarmed, and a degradation cannot fire through it either.
        assert watcher.observe(12.0, 100.0, 100.0, 0.9) is None
        assert watcher.observe(13.0, 100.0, 100.0, 0.3) is None
        assert watcher.observe(14.0, 130.0, 100.0, 0.3) is None
        assert not watcher.armed
        # Below it: re-arm, and the next crossing fires.
        assert watcher.observe(15.0, 100.0, 100.0, 0.2) is None
        assert watcher.armed
        assert watcher.observe(16.0, 100.0, 100.0, 0.9) is not None
        # Re-armed again, but inside the cooldown of the firing at 16.
        assert watcher.observe(17.0, 100.0, 100.0, 0.0) is None
        assert watcher.observe(18.0, 100.0, 100.0, 0.9) is None
        assert watcher.armed  # suppression does not consume the arm
        assert watcher.observe(26.0, 100.0, 100.0, 0.9) is not None
        assert watcher.events == 3

    def test_invalid_observations_rejected(self):
        watcher = DriftWatcher()
        with pytest.raises(ValueError):
            watcher.observe(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            watcher.observe(0.0, -1.0, 10.0)


class TestRemapper:
    def test_stays_put_without_drift(self, service_and_app):
        """On an unloaded cluster the incumbent is (near) optimal: stay."""
        service, app = service_and_app
        evaluator = service.evaluator(app.name)
        current = TaskMapping(service.cluster.node_ids()[:NPROCS])
        plan = Remapper(restarts=2, seed_scan=4).propose(evaluator, current, seed=3)
        assert plan.remap is False
        assert plan.current == current

    def test_remaps_off_loaded_nodes_deterministically(self):
        """Load the mapped nodes; the plan escapes them, and the decision
        is byte-identical across search parallelism."""
        service, app = make_service()
        nodes = service.cluster.node_ids()
        current = TaskMapping(nodes[:NPROCS])
        generator = LoadGenerator(service.cluster)
        events = [LoadEvent(n, cpu_load=1.5) for n in nodes[:NPROCS]]
        with generator.loaded(events):
            evaluator = service.evaluator(app.name)
            plans = [
                Remapper(restarts=2, seed_scan=4, parallel=parallel).propose(
                    evaluator, current, seed=11
                )
                for parallel in (1, 2)
            ]
        serial, parallel = plans
        assert serial.to_dict() == parallel.to_dict()
        assert serial.remap is True
        loaded = set(nodes[:NPROCS])
        assert not loaded & set(serial.candidate.as_tuple())
        assert serial.savings_s > serial.migration_cost_s * serial.safety_factor
        assert serial.migration_cost_s > 0.0
        assert serial.evaluations > 0

    def test_bad_inputs_rejected(self, service_and_app):
        service, app = service_and_app
        evaluator = service.evaluator(app.name)
        current = TaskMapping(service.cluster.node_ids()[:NPROCS])
        remapper = Remapper()
        with pytest.raises(ValueError):
            remapper.propose(evaluator, current, fraction_remaining=0.0)
        with pytest.raises(ValueError):
            remapper.propose(evaluator, current, pool=[])
        with pytest.raises(ValueError):
            Remapper(safety_factor=0.0)

    @pytest.mark.parametrize("parallel", [0, 2.5, True])
    def test_bad_parallel_refused_at_construction(self, parallel):
        with pytest.raises(ValueError, match="parallel must be an integer >= 1"):
            Remapper(parallel=parallel)


class TestRemapLoop:
    """``RemapLoop.step`` over a scripted load sequence, one row a tick."""

    #: (now_s, load the incumbent's nodes?, fraction_remaining, outcome)
    SCRIPT = [
        (0.0, False, 1.0, None),  # idle: nothing fires
        (10.0, True, 0.01, "stay"),  # drift, but the tail cannot repay a migration
        (20.0, False, 1.0, None),  # receded: re-arms
        (30.0, True, 1.0, "remap"),  # drift with the whole run ahead
        (35.0, True, 1.0, None),  # new incumbent drifts inside its cooldown
        (50.0, True, 1.0, "remap"),  # cooldown (from the adoption at 30) over
    ]

    def test_step_table(self, service_and_app):
        service, app = service_and_app
        start = TaskMapping(service.cluster.node_ids()[:NPROCS])
        loop = RemapLoop(
            mapping=start,
            baseline_s=service.evaluator(app.name).execution_time(start),
            watcher=DriftWatcher(threshold=0.10, cooldown_s=15.0),
            remapper=Remapper(restarts=2, seed_scan=4),
            seed=3,
        )
        generator = LoadGenerator(service.cluster)
        for now_s, load, fraction, outcome in self.SCRIPT:
            events = [LoadEvent(n, cpu_load=1.5) for n in loop.mapping.as_tuple()] if load else []
            before = loop.to_dict()
            with generator.loaded(events):
                evaluator = service.evaluator(app.name)
                fired = loop.step(evaluator, now_s, fraction)
                if outcome is None:
                    assert fired is None, now_s
                    assert loop.to_dict() == before  # no state change
                    continue
                event, plan = fired
                assert event.now_s == now_s
                assert plan.remap is (outcome == "remap"), now_s
                assert plan.current.as_tuple() == tuple(before["mapping"])
                # Verdict recorded, nothing adopted yet.
                assert loop.drift_events == before["drift_events"] + 1
                assert loop.proposals == before["proposals"] + 1
                assert not loop.watcher.armed
                unadopted = dict(before, drift_events=loop.drift_events, proposals=loop.proposals)
                assert loop.to_dict() == unadopted
                if plan.remap:
                    loop.adopt(plan, evaluator, now_s)
                    # Mapping, baseline and watcher move together.
                    assert loop.mapping == plan.candidate != plan.current
                    assert loop.baseline_s == evaluator.execution_time(plan.candidate)
                    assert loop.remaps == before["remaps"] + 1
                    assert loop.watcher.armed
        assert (loop.drift_events, loop.proposals, loop.remaps) == (3, 3, 2)

    def test_adoption_time_starts_the_cooldown(self, service_and_app):
        """The caller's resume time, not the tick time, opens the window."""
        service, app = service_and_app
        nodes = service.cluster.node_ids()
        start = TaskMapping(nodes[:NPROCS])
        evaluator = service.evaluator(app.name)
        baseline_s = evaluator.execution_time(start)
        fired_at = []
        for resume_s in (1.0, 4.0):  # no pause; a 3 s migration pause
            loop = RemapLoop(
                mapping=start,
                baseline_s=baseline_s,
                watcher=DriftWatcher(threshold=0.10, cooldown_s=5.0),
                remapper=Remapper(restarts=2, seed_scan=4),
            )
            with LoadGenerator(service.cluster).loaded(
                [LoadEvent(n, cpu_load=1.5) for n in nodes[:NPROCS]]
            ):
                loaded = service.evaluator(app.name)
                _, plan = loop.step(loaded, 1.0)
                loop.adopt(plan, loaded, resume_s)
            with LoadGenerator(service.cluster).loaded(
                [LoadEvent(n, cpu_load=1.5) for n in loop.mapping.as_tuple()]
            ):
                fired_at.append(loop.step(service.evaluator(app.name), 7.0) is not None)
        assert fired_at == [True, False]

    #: (now_s, load the incumbent's nodes?, executing segment, source that
    #: fires or None, loop.segment afterwards)
    SEGMENT_SCRIPT = [
        (0.0, False, None, None, None),  # whole-run behaviour, idle: nothing
        (10.0, False, 1, "internal", 1),  # entering a deviating segment fires once
        (11.0, False, 1, None, 1),  # same segment again: judged already
        (30.0, True, 1, "external", 1),  # load: the first source, adopted at 30
        (35.0, False, 2, None, 1),  # new segment inside that cooldown: not yet
        (46.0, False, 2, "internal", 2),  # cooldown over: the entry was kept
        (47.0, False, 9, None, 2),  # an unprofiled segment contributes nothing
        (70.0, False, None, "internal", None),  # back to the whole run: an entry too
        (90.0, False, 1, None, None),  # straight after an event: this tick re-arms,
        (91.0, False, 1, "internal", 1),  # the next fires — late, not lost
    ]

    def test_step_table_second_source(self, phased_service):
        """One search per segment entry, judged on that segment's profile."""
        service, app = phased_service
        profile = service.profile(app.name)
        start = TaskMapping(service.cluster.node_ids()[:NPROCS])
        loop = RemapLoop(
            mapping=start,
            baseline_s=service.evaluator(app.name).execution_time(start),
            watcher=DriftWatcher(threshold=0.10, cooldown_s=15.0),
            remapper=Remapper(restarts=2, seed_scan=4, safety_factor=1.0),
            seed=3,
        )
        generator = LoadGenerator(service.cluster)
        for now_s, load, segment, source, judged_for in self.SEGMENT_SCRIPT:
            events = [LoadEvent(n, cpu_load=1.5) for n in loop.mapping.as_tuple()] if load else []
            before = loop.to_dict()
            with generator.loaded(events):
                evaluator = service.evaluator(app.name)
                fired = loop.step(evaluator, now_s, segment=segment)
                assert loop.segment == judged_for, now_s
                if source is None:
                    assert fired is None, now_s
                    assert loop.to_dict() == before
                    continue
                event, plan = fired
                assert loop.proposals == before["proposals"] + 1
                if source == "internal":
                    assert event.behaviour > loop.watcher.behaviour_threshold
                    assert event.degradation == pytest.approx(0.0, abs=1e-9)
                else:
                    assert event.behaviour == 0.0
                    assert event.degradation > loop.watcher.threshold
                judged_on = profile if segment is None else profile.segments[segment]
                assert plan.current_remaining_s == evaluator.with_profile(
                    judged_on
                ).execution_time(loop.mapping)
                assert plan.remap is load, now_s
                if plan.remap:
                    loop.adopt(plan, evaluator, now_s)
        assert (loop.drift_events, loop.proposals, loop.remaps) == (5, 5, 1)

    @pytest.mark.parametrize("fraction", [1.2, math.nan, 0.0, -0.1])
    def test_rejected_fraction_spends_no_drift(self, service_and_app, fraction):
        """A tick refused for its ``fraction_remaining`` changes nothing:
        the next valid tick under the same load still fires."""
        service, app = service_and_app
        start = TaskMapping(service.cluster.node_ids()[:NPROCS])
        loop = RemapLoop(
            mapping=start,
            baseline_s=service.evaluator(app.name).execution_time(start),
            watcher=DriftWatcher(threshold=0.10),
            remapper=Remapper(restarts=2, seed_scan=4),
        )
        before = loop.to_dict()
        registry = MetricsRegistry()
        with LoadGenerator(service.cluster).loaded(
            [LoadEvent(n, cpu_load=1.5) for n in start.as_tuple()]
        ), use_registry(registry):
            evaluator = service.evaluator(app.name)
            with pytest.raises(ValueError, match="fraction_remaining"):
                loop.step(evaluator, 1.0, fraction)
            assert loop.to_dict() == before
            assert loop.watcher.armed
            assert registry.counter(*DRIFT_EVENTS_TOTAL).samples() == []
            assert loop.step(evaluator, 2.0, 0.5) is not None
            assert registry.counter(*DRIFT_EVENTS_TOTAL).labels().value == 1


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def lu_service(self):
        service = CBES(single_switch("loop", NNODES))
        service.calibrate(seed=7)
        app = LU("A")
        service.profile_application(app, NPROCS, seed=3)
        return service, app

    def test_remap_beats_stay_under_drift(self, lu_service):
        service, app = lu_service
        nodes = service.cluster.node_ids()
        scenario = [
            LoadPhase(
                at_fraction=0.25,
                events=tuple(LoadEvent(n, cpu_load=1.5) for n in nodes[:NPROCS]),
            )
        ]
        stay = run_closed_loop(
            service, app, NPROCS, scenario=scenario, phases=6, policy="stay", seed=0
        )
        remap = run_closed_loop(
            service, app, NPROCS, scenario=scenario, phases=6, policy="remap", seed=0
        )
        assert remap.remaps == 1  # one switch, no thrash after rebase
        assert remap.drift_events >= 1
        assert remap.migration_s > 0.0
        assert remap.makespan_s < stay.makespan_s
        assert remap.makespan_s == pytest.approx(
            remap.compute_s + remap.migration_s
        )
        assert set(remap.final_mapping.as_tuple()).isdisjoint(nodes[:NPROCS])
        # Injected loads are restored even though the run remapped.
        assert all(service.cluster.node(n).background_load == 0.0 for n in nodes)

    def test_steady_scenario_never_remaps(self, lu_service):
        service, app = lu_service
        steady = run_closed_loop(
            service, app, NPROCS, scenario=(), phases=6, policy="remap", seed=0
        )
        assert steady.remaps == 0
        assert steady.drift_events == 0
        assert steady.decisions == ()
        assert steady.migration_s == 0.0

    def test_cooldown_rides_out_late_second_injection(self, lu_service):
        """A second drift inside the watcher cooldown is ridden out: the
        run still remaps exactly once (in-flight work is never preempted
        by a new event — ticks are strictly sequential)."""
        service, app = lu_service
        nodes = service.cluster.node_ids()
        scenario = [
            LoadPhase(
                at_fraction=0.2,
                events=tuple(LoadEvent(n, cpu_load=1.5) for n in nodes[:NPROCS]),
            ),
            LoadPhase(
                at_fraction=0.7,
                events=tuple(
                    LoadEvent(n, cpu_load=0.8) for n in nodes[NPROCS : 2 * NPROCS]
                ),
            ),
        ]
        result = run_closed_loop(
            service,
            app,
            NPROCS,
            scenario=scenario,
            phases=6,
            policy="remap",
            watcher=DriftWatcher(threshold=0.10, cooldown_s=1e9),
            seed=0,
        )
        assert result.drift_events == 1
        assert result.remaps == 1
        assert all(service.cluster.node(n).background_load == 0.0 for n in nodes)

    def test_invalid_arguments_rejected(self, lu_service):
        service, app = lu_service
        with pytest.raises(ValueError):
            run_closed_loop(service, app, NPROCS, policy="flip-flop")
        with pytest.raises(ValueError):
            run_closed_loop(service, app, NPROCS, phases=0)
        with pytest.raises(ValueError):
            LoadPhase(at_fraction=1.0, events=())

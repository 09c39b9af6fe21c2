"""Tests for the schedulers: moves, SA core, CS/NCS/RS/greedy/GA."""

import pytest

from repro._util import spawn_rng
from repro.core import TaskMapping
from repro.schedulers import (
    AnnealingSchedule,
    CbesScheduler,
    GeneticParams,
    GeneticScheduler,
    GreedyScheduler,
    MoveGenerator,
    NoCommScheduler,
    RandomScheduler,
    anneal,
    random_mapping,
)
from repro.schedulers.genetic import _crossover

POOL = [f"n{i}" for i in range(8)]


class TestMoveGenerator:
    def test_neighbour_preserves_one_per_node(self):
        rng = spawn_rng(1, "mv")
        moves = MoveGenerator(POOL)
        mapping = TaskMapping(POOL[:4])
        for _ in range(100):
            mapping = moves.neighbour(mapping, rng)
            assert mapping.is_one_per_node
            assert set(mapping.nodes_used()) <= set(POOL)

    def test_swap_only_when_pool_exhausted(self):
        rng = spawn_rng(1, "mv")
        moves = MoveGenerator(POOL[:4])
        mapping = TaskMapping(POOL[:4])
        for _ in range(20):
            neighbour = moves.neighbour(mapping, rng)
            assert neighbour.nodes_used() == mapping.nodes_used()  # swaps only

    def test_single_proc_uses_replace(self):
        rng = spawn_rng(1, "mv")
        moves = MoveGenerator(POOL)
        mapping = TaskMapping([POOL[0]])
        seen = {moves.neighbour(mapping, rng).node_of(0) for _ in range(50)}
        assert len(seen) > 1

    def test_degenerate_case_returns_same(self):
        rng = spawn_rng(1, "mv")
        moves = MoveGenerator(["only"])
        mapping = TaskMapping(["only"])
        assert moves.neighbour(mapping, rng) == mapping

    def test_swap_probability_validation(self):
        with pytest.raises(ValueError):
            MoveGenerator(POOL, swap_probability=1.5)


class TestAnnealCore:
    def energy_of(self, target):
        """Distance-to-target energy over mappings of POOL."""

        def energy(mapping: TaskMapping) -> float:
            return sum(1.0 for a, b in zip(mapping, target, strict=True) if a != b)

        return energy

    def test_finds_global_optimum_on_toy_landscape(self):
        rng = spawn_rng(2, "sa")
        target = tuple(POOL[:4])
        best, energy, _ = anneal(
            self.energy_of(target),
            random_mapping(POOL, 4, rng),
            MoveGenerator(POOL),
            rng,
            schedule=AnnealingSchedule(moves_per_temperature=80, steps=30),
        )
        assert energy == 0.0
        assert best.as_tuple() == target

    def test_maximize_direction(self):
        rng = spawn_rng(4, "sa")
        target = tuple(POOL[:4])
        _, energy, _ = anneal(
            self.energy_of(target),
            TaskMapping(POOL[:4]),
            MoveGenerator(POOL),
            rng,
            direction="maximize",
        )
        assert energy == 4.0  # every position moved off target

    def test_invalid_direction(self):
        rng = spawn_rng(1, "sa")
        with pytest.raises(ValueError):
            anneal(lambda m: 0.0, TaskMapping(POOL[:2]), MoveGenerator(POOL), rng, direction="up")

    def test_feasibility_respected(self):
        rng = spawn_rng(5, "sa")
        must_keep = POOL[0]

        def feasible(m: TaskMapping) -> bool:
            return must_keep in m.nodes_used()

        best, _, _ = anneal(
            lambda m: 1.0,
            TaskMapping(POOL[:3]),
            MoveGenerator(POOL),
            rng,
            feasible=feasible,
        )
        assert must_keep in best.nodes_used()

    def test_history_monotone_nonincreasing(self):
        rng = spawn_rng(6, "sa")
        _, _, history = anneal(
            self.energy_of(tuple(POOL[:4])),
            random_mapping(POOL, 4, rng),
            MoveGenerator(POOL),
            rng,
        )
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:], strict=False))

    def test_schedule_validation(self):
        for bad in (
            dict(moves_per_temperature=0),
            dict(cooling=1.0),
            dict(steps=0),
            dict(initial_acceptance=0.0),
            dict(patience=0),
        ):
            with pytest.raises(ValueError):
                AnnealingSchedule(**bad)


@pytest.fixture(scope="module")
def lu_setup(request):
    """Orange Grove service with LU profiled (module-scoped)."""
    from repro.cluster import orange_grove
    from repro.core import CBES
    from repro.workloads import LU

    cluster = orange_grove()
    service = CBES(cluster)
    service.calibrate(seed=1)
    app = LU("A")
    alphas = cluster.nodes_by_arch("alpha-533")
    service.profile_application(app, 8, mapping=TaskMapping(alphas), seed=0)
    return service, app, alphas


class TestSchedulersOnCbes:
    def test_pool_too_small_rejected(self, lu_setup):
        service, app, alphas = lu_setup
        with pytest.raises(ValueError, match="pool"):
            service.schedule(app.name, RandomScheduler(), alphas[:4])

    def test_rs_negligible_evaluations(self, lu_setup):
        service, app, alphas = lu_setup
        result = service.schedule(app.name, RandomScheduler(), alphas, seed=1)
        assert result.evaluations == 1  # only the reporting prediction
        assert result.scheduler == "RS"

    def test_cs_beats_rs_on_prediction(self, lu_setup):
        service, app, alphas = lu_setup
        cs = service.schedule(app.name, CbesScheduler(), alphas, seed=2)
        rs_times = [
            service.schedule(app.name, RandomScheduler(), alphas, seed=100 + k).predicted_time
            for k in range(5)
        ]
        assert cs.predicted_time <= min(rs_times) + 1e-9

    def test_ncs_ignores_communication(self, lu_setup):
        service, app, alphas = lu_setup
        # On a homogeneous unloaded pool, NCS sees a flat landscape, so
        # its pick is essentially random; CS's full prediction of the
        # NCS pick should (almost always) exceed CS's own.
        cs = service.schedule(app.name, CbesScheduler(), alphas, seed=3)
        ncs = service.schedule(app.name, NoCommScheduler(), alphas, seed=3)
        assert ncs.predicted_time >= cs.predicted_time

    def test_worst_case_direction(self, lu_setup):
        service, app, alphas = lu_setup
        best = service.schedule(app.name, CbesScheduler(), alphas, seed=4)
        worst = service.schedule(
            app.name, CbesScheduler(direction="maximize"), alphas, seed=4
        )
        assert worst.predicted_time > best.predicted_time

    def test_constraint_respected(self, lu_setup):
        service, app, alphas = lu_setup
        intels = service.cluster.nodes_by_arch("pii-400")
        pool = alphas + intels
        arch_of = {n: service.cluster.node(n).arch.name for n in pool}

        def needs_intel(m: TaskMapping) -> bool:
            return any(arch_of[n] == "pii-400" for n in m.nodes_used())

        result = service.schedule(
            app.name, CbesScheduler(constraint=needs_intel), pool, seed=5
        )
        assert needs_intel(result.mapping)

    def test_greedy_prefers_fast_nodes(self, lu_setup):
        service, app, alphas = lu_setup
        pool = alphas + service.cluster.nodes_by_arch("sparc-500")
        result = service.schedule(app.name, GreedyScheduler(), pool, seed=6)
        archs = {service.cluster.node(n).arch.name for n in result.mapping.nodes_used()}
        assert archs == {"alpha-533"}  # never picks the slow SPARCs

    def test_ga_competitive_with_cs(self, lu_setup):
        service, app, alphas = lu_setup
        cs = service.schedule(app.name, CbesScheduler(), alphas, seed=7)
        ga = service.schedule(
            app.name,
            GeneticScheduler(params=GeneticParams(population=24, generations=40)),
            alphas,
            seed=7,
        )
        assert ga.predicted_time <= cs.predicted_time * 1.08

    def test_schedule_result_bookkeeping(self, lu_setup):
        service, app, alphas = lu_setup
        result = service.schedule(app.name, CbesScheduler(), alphas, seed=8)
        assert result.evaluations > 100
        assert result.wall_time_s > 0
        assert result.history  # convergence trajectory recorded

    def test_deterministic_given_seed(self, lu_setup):
        service, app, alphas = lu_setup
        a = service.schedule(app.name, CbesScheduler(), alphas, seed=11)
        b = service.schedule(app.name, CbesScheduler(), alphas, seed=11)
        assert a.mapping == b.mapping
        assert a.predicted_time == b.predicted_time


class TestGeneticInternals:
    def test_params_validation(self):
        for bad in (
            dict(population=1),
            dict(generations=0),
            dict(tournament=1),
            dict(crossover_rate=1.5),
            dict(elite=99),
            dict(patience=0),
        ):
            with pytest.raises(ValueError):
                GeneticParams(**bad)

    def test_crossover_produces_valid_mapping(self):
        rng = spawn_rng(2, "ga")
        a = TaskMapping(POOL[:4])
        b = TaskMapping(POOL[4:8])
        for _ in range(50):
            child = _crossover(a, b, POOL, rng)
            assert child.nprocs == 4
            assert child.is_one_per_node
            assert set(child.nodes_used()) <= set(POOL)

    def test_crossover_inherits_genes(self):
        rng = spawn_rng(3, "ga")
        a = TaskMapping(POOL[:4])
        child = _crossover(a, a, POOL, rng)
        assert child == a

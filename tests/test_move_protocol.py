"""The move protocol: ``MoveGenerator.draw`` -> ``IncrementalEvaluator.propose_move``.

Three contracts:

* **draw order** — ``draw`` over an advancing :class:`Occupancy` yields
  the candidate sequence (and leaves the RNG where) the original
  per-mapping generator did, transcribed here as the oracle;
* **delta identity** — ``propose_move(move)`` is bit-for-bit
  ``propose(move.apply(current))``: same float, same evaluator state;
* **cost** — the generator computes occupancy once per chain (once per
  call for the one-shot ``neighbour``), and ``anneal`` builds no
  ``TaskMapping`` for a move that does not become the new best.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro._rng import Rng
from repro._util import spawn_rng
from repro.cluster import single_switch
from repro.core import CBES, InvalidMappingError, TaskMapping
from repro.schedulers import AnnealingSchedule, Move, MoveGenerator, anneal
from repro.schedulers import moves as moves_module
from repro.workloads import CG, LU
from tests.conftest import OPTION_COMBOS

POOL = [f"n{i:02d}" for i in range(12)]


def parent_neighbour(pool: list[str], swap_p: float, mapping: TaskMapping, rng: Rng) -> TaskMapping:
    """``MoveGenerator.neighbour`` as it stood before moves were first-class."""
    nprocs = mapping.nprocs
    free = [n for n in pool if n not in mapping.nodes_used()]
    can_swap = nprocs >= 2
    can_replace = bool(free)
    if not can_swap and not can_replace:
        return mapping
    do_swap = can_swap and (not can_replace or rng.random() < swap_p)
    if do_swap:
        a, b = rng.choice(nprocs, size=2, replace=False)
        return mapping.with_swap(int(a), int(b))
    rank = int(rng.integers(nprocs))
    node = free[int(rng.integers(len(free)))]
    return mapping.with_assignment(rank, node)


#: name -> (pool, start, swap_probability)
SHAPES = {
    "one-per-node": (POOL, TaskMapping(POOL[:5]), 0.5),
    "colocated-start": (POOL, TaskMapping(POOL[:3] * 2), 0.5),
    "start-outside-pool": (POOL[4:], TaskMapping(POOL[:5]), 0.5),
    "pool-equals-ranks": (POOL[:5], TaskMapping(POOL[:5]), 0.5),
    "one-rank": (POOL, TaskMapping(POOL[3:4]), 0.5),
    "one-rank-one-node": (POOL[:1], TaskMapping(POOL[:1]), 0.5),
    "replace-only": (POOL, TaskMapping(POOL[:5]), 0.0),
    "swap-only": (POOL, TaskMapping(POOL[:5]), 1.0),
}


class TestDrawOrder:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_draw_replays_the_parent_generator(self, shape):
        pool, start, swap_p = SHAPES[shape]
        moves = MoveGenerator(pool, swap_probability=swap_p)
        for seed in range(5):
            oracle_rng, rng, accept = (
                spawn_rng(seed, "draw-order"),
                spawn_rng(seed, "draw-order"),
                spawn_rng(seed, "accept"),
            )
            current = start
            occupancy = moves.occupancy(start)
            for step in range(2000):
                want = parent_neighbour(pool, swap_p, current, oracle_rng)
                move = moves.draw(occupancy, rng)
                assert move.apply(current) == want, (seed, step)
                # An SA chain advances on accepted moves only.
                if accept.random() < 0.7:
                    current = want
                    occupancy.apply(move)
                    assert occupancy.mapping() == current, (seed, step)
            assert rng.__getstate__() == oracle_rng.__getstate__()

    def test_shapes_cover_both_kinds_and_the_identity(self):
        """The shapes mean what their names say (guards the oracle run)."""

        def kinds(shape):
            pool, start, swap_p = SHAPES[shape]
            moves, rng = MoveGenerator(pool, swap_probability=swap_p), spawn_rng(1, "k")
            drawn = [moves.draw(moves.occupancy(start), rng) for _ in range(60)]
            return {
                "identity" if m.node is None and m.rank == m.other
                else "swap" if m.node is None
                else "replace"
                for m in drawn
            }

        assert kinds("one-per-node") == {"swap", "replace"}
        assert kinds("pool-equals-ranks") == kinds("swap-only") == {"swap"}
        assert kinds("one-rank") == kinds("replace-only") == {"replace"}
        assert kinds("one-rank-one-node") == {"identity"}

    def test_neighbour_is_draw_then_apply(self):
        moves = MoveGenerator(POOL)
        mapping = TaskMapping(POOL[:5])
        a, b = spawn_rng(4, "n"), spawn_rng(4, "n")
        for _ in range(50):
            assert moves.neighbour(mapping, a) == moves.draw(moves.occupancy(mapping), b).apply(
                mapping
            )


class TestMove:
    def test_apply(self):
        mapping = TaskMapping(["a", "b", "c"])
        assert Move.swap(0, 2).apply(mapping) == TaskMapping(["c", "b", "a"])
        assert Move.replace(1, "z").apply(mapping) == TaskMapping(["a", "z", "c"])
        assert Move.swap(1, 1).apply(mapping) is mapping

    def test_apply_validates_like_the_mapping(self):
        mapping = TaskMapping(["a", "b"])
        with pytest.raises(InvalidMappingError):
            Move.swap(0, 5).apply(mapping)
        with pytest.raises(InvalidMappingError):
            Move.replace(0, "").apply(mapping)

    @pytest.mark.parametrize("ranks", [(-1, 0), (0, -1), (-3, -2), (0, 3), (3, 3)])
    def test_with_swap_refuses_ranks_outside_the_mapping(self, ranks):
        """A negative rank is not "the last rank": no wrap-around."""
        mapping = TaskMapping(["a", "b", "c"])
        with pytest.raises(InvalidMappingError, match="out of range"):
            mapping.with_swap(*ranks)

    @pytest.mark.parametrize(
        "move",
        [Move.swap(-1, 0), Move.swap(0, -1), Move.swap(0, 5), Move.replace(-1, POOL[7]),
         Move.replace(5, POOL[7])],
        ids=repr,
    )
    def test_occupancy_refuses_ranks_outside_the_mapping(self, move):
        start = TaskMapping(POOL[:5])
        occupancy = MoveGenerator(POOL).occupancy(start)
        free = list(occupancy.free)
        with pytest.raises(InvalidMappingError, match="out of range"):
            occupancy.apply(move)
        assert occupancy.mapping() == start and occupancy.free == free


# -- delta identity --------------------------------------------------------

STATE = ("_pos", "_counts", "_acpu", "_r", "_c", "_terms", "_totals", "_best", "_arg")


@pytest.fixture(scope="module")
def service() -> CBES:
    # Mixed architectures plus heterogeneous CPU and NIC load, so ACPU
    # changes, endpoint stretching and co-location all reach the delta.
    cluster = single_switch("moves", 10)
    service = CBES(cluster)
    service.calibrate(seed=5)
    service.profile_application(LU("A"), 6, seed=1)
    service.profile_application(CG("B"), 6, seed=1)
    for i, nid in enumerate(cluster.node_ids()):
        cluster.node(nid).background_load = 0.3 * (i % 4)
        cluster.node(nid).nic_load = 0.15 * (i % 3)
    return service


def random_move(nprocs: int, pool: list[str], rng: Rng) -> Move:
    """Swap, or replace onto *any* pool node — occupied ones co-locate."""
    if rng.random() < 0.4:
        return Move.swap(rng.integers(nprocs), rng.integers(nprocs))
    return Move.replace(rng.integers(nprocs), pool[rng.integers(len(pool))])


def state(inc) -> tuple:
    return tuple(getattr(inc, name) for name in STATE)


BACKENDS = {
    "python": lambda: mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": "python"}),
    "numpy": lambda: mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": "numpy"}),
    "numpy-blocked": lambda: mock.patch("repro.core.fast_eval.np", None),
}


class TestDeltaIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("options", OPTION_COMBOS)
    def test_propose_move_is_propose_of_the_applied_mapping(self, service, options, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        pool = service.cluster.node_ids()
        colocations = 0
        with BACKENDS[backend]():
            for app in (LU("A").name, CG("B").name):
                evaluator = service.evaluator(app, options=options)
                by_mapping, by_move = evaluator.incremental(), evaluator.incremental()
                current = TaskMapping(pool[:6])
                assert by_mapping.reset(current) == by_move.reset(current)
                rng = spawn_rng(7, "delta-identity", app)
                for step in range(500):
                    move = random_move(6, pool, rng)
                    candidate = move.apply(current)
                    want = by_mapping.propose(candidate)
                    got = by_move.propose_move(move)
                    assert got == want, (app, step)  # bit-for-bit
                    if rng.random() < 0.6:
                        by_mapping.commit()
                        by_move.commit()
                        current = candidate
                        colocations += not current.is_one_per_node
                    else:
                        by_mapping.reject()
                        by_move.reject()
                    assert state(by_move) == state(by_mapping), (app, step)
                # The committed state is the state of a fresh full evaluation.
                fresh = evaluator.incremental()
                fresh.reset(current)
                assert state(by_move)[:3] == state(fresh)[:3]
                assert by_move.execution_time == fresh.execution_time
        assert colocations > 100  # the walk really did co-locate

    def test_counts_one_evaluation_per_proposal(self, service):
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        inc = evaluator.incremental()
        inc.reset(TaskMapping(pool[:6]))
        before = evaluator.evaluations
        for move in (Move.swap(0, 1), Move.replace(2, pool[8]), Move.swap(3, 3)):
            inc.propose_move(move)
            inc.reject()
        assert evaluator.evaluations == before + 3

    def test_rejects_what_a_mapping_would(self, service):
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        inc = evaluator.incremental()
        with pytest.raises(RuntimeError, match="reset"):
            inc.propose_move(Move.swap(0, 1))
        s0 = inc.reset(TaskMapping(pool[:6]))
        with pytest.raises(InvalidMappingError, match="unknown node"):
            inc.propose_move(Move.replace(0, "nowhere"))
        with pytest.raises(InvalidMappingError, match="out of range"):
            inc.propose_move(Move.swap(0, 6))
        with pytest.raises(InvalidMappingError, match="out of range"):
            inc.propose_move(Move.replace(9, pool[7]))
        # A negative rank is refused, not wrapped round to the last rank.
        for move in (Move.swap(-1, 0), Move.swap(0, -1), Move.replace(-1, pool[7])):
            with pytest.raises(InvalidMappingError, match="out of range"):
                inc.propose_move(move)
            with pytest.raises(InvalidMappingError):
                move.apply(TaskMapping(pool[:6]))
        assert inc.execution_time == s0


# -- what a move costs -----------------------------------------------------


class _UphillEnergy:
    """An incremental energy on which no move ever improves on the start."""

    def __init__(self):
        self.seen = []

    def reset(self, mapping):
        return 0.0

    def propose_move(self, move):
        self.seen.append(move)
        return 1.0 if len(self.seen) % 3 else 0.0  # some accepted, none better

    def commit(self):
        pass

    def reject(self):
        pass


@pytest.fixture
def constructions(monkeypatch):
    """Counts of ``TaskMapping`` / ``Occupancy`` builds and ``nodes_used`` calls."""
    counts = {"mapping": 0, "occupancy": 0, "nodes_used": 0}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    occupancy = moves_module.Occupancy
    monkeypatch.setattr(TaskMapping, "__init__", counting("mapping", TaskMapping.__init__))
    monkeypatch.setattr(
        TaskMapping, "_trusted", classmethod(counting("mapping", TaskMapping._trusted.__func__))
    )
    monkeypatch.setattr(TaskMapping, "nodes_used", counting("nodes_used", TaskMapping.nodes_used))
    monkeypatch.setattr(occupancy, "__init__", counting("occupancy", occupancy.__init__))
    return counts


class TestMoveCost:
    SCHEDULE = AnnealingSchedule(moves_per_temperature=30, steps=10, patience=10)

    def test_neighbour_computes_occupancy_once(self, constructions):
        moves, rng = MoveGenerator(POOL), spawn_rng(1, "cost")
        mapping = TaskMapping(POOL[:5])
        constructions.update(mapping=0)
        for _ in range(40):
            moves.neighbour(mapping, rng)
        assert constructions == {"mapping": 40, "occupancy": 40, "nodes_used": 0}

    def test_anneal_builds_no_mapping_for_unimproving_moves(self, constructions):
        energy, start = _UphillEnergy(), TaskMapping(POOL[:5])
        constructions.update(mapping=0)
        best, best_energy, history = anneal(
            energy, start, MoveGenerator(POOL), spawn_rng(2, "cost"), schedule=self.SCHEDULE
        )
        assert len(energy.seen) == 12 + 300 and all(isinstance(m, Move) for m in energy.seen)
        assert best is start and best_energy == 0.0 and history == [0.0] * 10
        # One occupancy for the T0 probe walk, one for the chain; nothing per move.
        assert constructions == {"mapping": 0, "occupancy": 2, "nodes_used": 0}

    def test_anneal_builds_a_mapping_per_new_best_only(self, service, constructions):
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        start = TaskMapping(pool[:6])
        inc = evaluator.incremental()
        constructions.update(mapping=0)
        best, best_energy, history = anneal(
            inc, start, MoveGenerator(pool), spawn_rng(3, "cost"), schedule=self.SCHEDULE
        )
        improvements = constructions["mapping"]
        assert 1 <= improvements <= 40  # far below the 312 moves proposed
        assert constructions["occupancy"] == 2 and constructions["nodes_used"] == 0
        assert best_energy == history[-1] == evaluator.execution_time(best)

    def test_constraint_sees_every_candidate_as_a_mapping(self):
        seen = []

        def feasible(mapping: TaskMapping) -> bool:
            seen.append(mapping)
            return POOL[0] not in mapping.nodes_used() or mapping.node_of(0) == POOL[0]

        start = TaskMapping(POOL[:5])
        best, _, _ = anneal(
            _UphillEnergy(), start, MoveGenerator(POOL), spawn_rng(5, "cost"),
            schedule=self.SCHEDULE, feasible=feasible,
        )
        assert len(seen) == 312 and all(isinstance(m, TaskMapping) for m in seen)
        assert feasible(best)

"""Fast evaluation path: agreement with the reference, caching, wiring.

The central property: over randomized move sequences (swaps, replaces,
and colocating assignments), :class:`IncrementalEvaluator` must agree
with the reference ``MappingEvaluator.predict()`` exactly (``==``: both
write eqs. 5-6 in one association) — for the full formula and for every
ablation option combination.  The message-group terms it caches per
rank, patched move by move, ``==`` a fresh evaluation after every commit
and every reject.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import pickle
import sys
import threading
from unittest import mock

import pytest

from repro._rng import Rng
from repro._util import spawn_rng
from repro.cluster import single_switch
from repro.cluster.latency import LatencyModel, PathComponents
from repro.cluster.node import Architecture, Node
from repro.core import CBES, EvaluationOptions, TaskMapping
from repro.core.errors import InvalidMappingError
from repro.core.evaluation import MappingEvaluator
from repro.core.fast_eval import EvaluationContext, IncrementalEvaluator, left_fold
from repro.monitoring.snapshot import NodeState, SystemSnapshot
from repro.profiling.profile import ApplicationProfile, MessageGroup, ProcessProfile
from repro.schedulers.annealing import AnnealingSchedule, anneal, supports_incremental
from repro.schedulers.cs import CbesScheduler
from repro.schedulers.moves import Move, MoveGenerator
from repro.workloads import CG, LU
from tests.conftest import OPTION_COMBOS


@pytest.fixture(scope="module")
def service() -> CBES:
    cluster = single_switch("fastpath", 8)
    service = CBES(cluster)
    service.calibrate(seed=2)
    app = LU("A")
    service.profile_application(app, 4, seed=0)
    # Heterogeneous load (after calibration, which requires an unloaded
    # system) so ACPU, NIC stretch, and colocation all matter.
    for i, nid in enumerate(cluster.node_ids()):
        cluster.node(nid).background_load = 0.4 * (i % 3)
        cluster.node(nid).nic_load = 0.1 * (i % 4)
    return service


@pytest.fixture(scope="module")
def app_name(service) -> str:
    return LU("A").name


def random_move(mapping: TaskMapping, pool: list[str], rng: Rng) -> TaskMapping:
    """Swap, replace, or colocate — richer than the scheduler move set."""
    kind = rng.random()
    nprocs = mapping.nprocs
    if kind < 0.4 and nprocs >= 2:
        a, b = rng.choice(nprocs, size=2, replace=False)
        return mapping.with_swap(int(a), int(b))
    rank = int(rng.integers(nprocs))
    if kind < 0.8:
        free = [n for n in pool if n not in mapping.nodes_used()]
        if free:
            return mapping.with_assignment(rank, free[int(rng.integers(len(free)))])
    # Colocating assignment: any pool node, possibly already occupied.
    return mapping.with_assignment(rank, pool[int(rng.integers(len(pool)))])


class TestAgreementProperty:
    @pytest.mark.parametrize("options", OPTION_COMBOS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_incremental_matches_reference_over_move_sequences(
        self, service, app_name, options, seed
    ):
        evaluator = service.evaluator(app_name, options=options)
        pool = service.cluster.node_ids()
        rng = spawn_rng(seed, "fast-eval-moves")
        inc = evaluator.incremental()
        mapping = TaskMapping(pool[:4])
        assert inc.reset(mapping) == evaluator.execution_time(mapping)
        for step in range(120):
            candidate = random_move(mapping, pool, rng)
            fast = inc.propose(candidate)
            ref = evaluator.execution_time(candidate)
            assert fast == ref, f"diverged at step {step}"
            if rng.random() < 0.6:
                inc.commit()
                mapping = candidate
            else:
                inc.reject()
        # Long-run state integrity: committed state equals a fresh eval.
        assert inc.execution_time == evaluator.execution_time(mapping)

    def test_stateless_call_matches_reference(self, service, app_name):
        evaluator = service.evaluator(app_name)
        pool = service.cluster.node_ids()
        inc = evaluator.incremental()
        for mapping in (
            TaskMapping(pool[:4]),
            TaskMapping([pool[0], pool[0], pool[0], pool[1]]),  # heavy colocation
        ):
            assert inc(mapping) == evaluator.execution_time(mapping)

    def test_full_vectorized_breakdown_matches_reference(self, service, app_name):
        evaluator = service.evaluator(app_name)
        pool = service.cluster.node_ids()
        mapping = TaskMapping([pool[0], pool[2], pool[2], pool[5]])
        context = evaluator.fast_context()
        r_arr, c_arr = context.rows(mapping)
        prediction = evaluator.predict(mapping)
        for proc in prediction.processes:
            assert r_arr[proc.rank] == proc.computation
            assert c_arr[proc.rank] == proc.communication


# -- cached message-group terms --------------------------------------------

TERM_NODES = [f"t{i}" for i in range(10)]
TERM_RANKS = 6
#: rank -> (sends, recvs) as (peer, size_bytes, count).  Deliberately
#: lopsided: rank 5 has no group of its own though 0, 3 and 4 message
#: it (so a change at 5 reaches them through the patch form only), rank
#: 2 also messages itself, and several ranks hold more than one group
#: per peer and direction.
TERM_GROUPS = {
    0: (
        [(1, 8192.0, 50), (1, 64.0, 7), (5, 1024.0, 20), (3, 512.0, 3)],
        [(1, 8192.0, 50), (4, 256.0, 9)],
    ),
    1: ([(0, 8192.0, 50), (2, 4096.0, 11)], [(0, 8192.0, 50), (0, 64.0, 7), (2, 128.0, 5)]),
    2: ([(1, 128.0, 5), (2, 32.0, 2), (4, 2048.0, 13)], [(1, 4096.0, 11), (3, 16.0, 1)]),
    3: ([(2, 16.0, 1), (5, 65536.0, 4)], [(0, 512.0, 3), (4, 1024.0, 6), (4, 8.0, 90)]),
    4: ([(0, 256.0, 9), (3, 1024.0, 6), (3, 8.0, 90), (5, 300.0, 2)], [(2, 2048.0, 13)]),
    5: ([], []),
}


def term_evaluator(options=None, *, missing=(), groups=None, idle=False) -> MappingEvaluator:
    """A 10-node / 6-rank synthetic instance under a loaded snapshot.

    Every node carries background load on one or two CPUs, so changes
    of a node's process count move its ACPU.  *missing* lists ordered
    node pairs left out of the latency model; *groups* replaces
    :data:`TERM_GROUPS`; *idle* reads the same instance with no
    background and no NIC load anywhere.
    """
    rng = spawn_rng(11, "cached-terms")
    archs = [Architecture("fast", 1.3), Architecture("slow", 0.9)]
    nodes = {
        nid: Node(nid, archs[i % 2], ncpus=1 + (i % 3 == 0)) for i, nid in enumerate(TERM_NODES)
    }
    comps = {
        (src, dst): PathComponents(
            alpha_src=25e-6 * rng.uniform(0.8, 1.2),
            alpha_dst=25e-6 * rng.uniform(0.8, 1.2),
            alpha_net=10e-6 * rng.uniform(0.5, 2.0),
            beta=8.0 / 100e6 * rng.uniform(0.9, 1.1),
        )
        for src, dst in itertools.permutations(TERM_NODES, 2)
    }
    for pair in missing:
        del comps[pair]
    states = {nid: NodeState(rng.uniform(0.2, 1.5), rng.uniform(0.0, 0.4)) for nid in TERM_NODES}
    if idle:
        states = dict.fromkeys(TERM_NODES, NodeState(0.0, 0.0))
    snapshot = SystemSnapshot(states=states, ncpus={nid: nodes[nid].ncpus for nid in TERM_NODES})
    procs = tuple(
        ProcessProfile(
            rank=rank,
            own_time=rng.uniform(5.0, 15.0),
            overhead_time=rng.uniform(0.1, 0.5),
            blocked_time=rng.uniform(0.5, 2.0),
            sends=tuple(MessageGroup(*g) for g in sends),
            recvs=tuple(MessageGroup(*g) for g in recvs),
            lam=rng.uniform(0.7, 1.1),
        )
        for rank, (sends, recvs) in (groups or TERM_GROUPS).items()
    )
    profile = ApplicationProfile(
        app_name="cached-terms",
        nprocs=len(procs),
        processes=procs,
        profile_mapping={r: TERM_NODES[r] for r in range(len(procs))},
        profile_speeds={r: 1.0 for r in range(len(procs))},
    )
    return MappingEvaluator(
        profile, LatencyModel(comps), nodes, snapshot, options or EvaluationOptions()
    )


def assert_state_is_fresh(inc, mapping: TaskMapping, where) -> None:
    """The committed state of *inc* is, exactly, a full evaluation of *mapping*."""
    ctx = inc.context
    pos = ctx.positions(mapping)
    assert inc._pos == pos, where
    counts = [pos.count(j) for j in range(ctx.nnodes)]
    assert inc._counts == counts, where
    assert inc._double == sum(1 for k in counts if k > 1), where
    acpu = ctx.acpu_by_node(counts)
    assert inc._acpu == acpu, where
    for rank in range(ctx.nprocs):
        assert inc._terms[rank] == ctx.comm_terms(rank, pos, acpu), (where, rank)
        assert inc._c[rank] == ctx.comm_time(rank, pos, acpu), (where, rank)
        assert inc._r[rank] == ctx.comp_time(rank, pos[rank], acpu), (where, rank)
    assert inc.execution_time == ctx.execution_time(mapping), where


class TestCachedTerms:
    """The delta kernel patches per-rank term lists; they never drift."""

    @pytest.mark.parametrize("cpu_availability", [True, False])
    @pytest.mark.parametrize("load_adjusted_latency", [True, False])
    def test_terms_equal_a_fresh_evaluation_after_every_resolve(
        self, load_adjusted_latency, cpu_availability
    ):
        options = EvaluationOptions(
            load_adjusted_latency=load_adjusted_latency, cpu_availability=cpu_availability
        )
        inc = term_evaluator(options).incremental()
        rng = spawn_rng(3, "cached-terms-walk")
        # Co-located start: ranks 0/1 and 2/3 share a node.
        current = TaskMapping(["t0", "t0", "t1", "t1", "t2", "t3"])
        inc.reset(current)
        assert_state_is_fresh(inc, current, "reset")
        kinds = {"swap": 0, "replace": 0, "diff": 0}
        acpu_moved = shared = 0
        for step in range(2400):
            kind = ("swap", "replace", "diff")[rng.integers(3)]
            if kind == "swap":
                move = Move.swap(rng.integers(TERM_RANKS), rng.integers(TERM_RANKS))
                candidate = move.apply(current)
                got = inc.propose_move(move)
            elif kind == "replace":
                # Any node, occupied ones included: co-locates and separates.
                move = Move.replace(rng.integers(TERM_RANKS), TERM_NODES[rng.integers(10)])
                candidate = move.apply(current)
                got = inc.propose_move(move)
            else:
                nodes = list(current.as_tuple())
                for _ in range(2 + rng.integers(3)):
                    nodes[rng.integers(TERM_RANKS)] = TERM_NODES[rng.integers(10)]
                candidate = TaskMapping(nodes)
                got = inc.propose(candidate)
            assert got == inc.context.execution_time(candidate), (step, kind)
            if rng.random() < 0.5:
                before = inc._acpu
                inc.commit()
                current = candidate
                kinds[kind] += 1
                acpu_moved += inc._acpu != before
                shared += not current.is_one_per_node
            else:
                inc.reject()
            assert_state_is_fresh(inc, current, (step, kind))
        assert min(kinds.values()) > 300
        assert shared > 300
        # The snapshot is loaded: under eq. 5 re-placements really moved ACPU.
        assert (acpu_moved > 300) is cpu_availability

    def test_zero_group_rank_and_self_messages_are_served(self):
        ctx = term_evaluator().fast_context()
        assert ctx.groups[5] == [] and ctx._peer_patches[5]  # messaged, never messaging
        assert ctx._rank_messages[5]  # so a move of 5 re-prices what its peers hold
        assert all(r != p for p in range(TERM_RANKS) for r, _ in ctx._peer_patches[p])
        pos = list(range(TERM_RANKS))
        acpu = ctx.acpu_by_node([1] * TERM_RANKS + [0] * 4)
        assert ctx.comm_terms(5, pos, acpu) == [] and ctx.comm_time(5, pos, acpu) == 0.0
        # Every group is indexed under its peer exactly once, self-messages
        # excepted, with its own message, which has that peer at an end.
        indexed = sorted(
            (r, g) for p in range(TERM_RANKS) for r, pairs in ctx._peer_patches[p]
            for g, m in pairs
            if m == ctx._group_messages[r][g] and ctx._messages[m] in ctx._rank_messages[p]
        )
        assert indexed == [
            (r, g) for r in range(TERM_RANKS)
            for g, src, dst, _, _ in ctx.groups[r] if src != dst
        ]

    def test_missing_pair_raises_from_the_patched_path(self):
        """Rank 5 holds no groups, so moving it computes no full list that
        could trip over the missing pair: the patch form must."""
        evaluator = term_evaluator(missing=[("t0", "t9"), ("t9", "t0")])
        inc = evaluator.incremental()
        start = TaskMapping(TERM_NODES[:TERM_RANKS])
        s0 = inc.reset(start)
        with pytest.raises(KeyError, match=r"no latency data for pair \('t0', 't9'\)"):
            inc.propose_move(Move.replace(5, "t9"))  # rank 0 on t0 sends to rank 5
        with pytest.raises(KeyError, match="no latency data for pair"):
            inc.propose(start.with_assignment(5, "t9"))
        with pytest.raises(KeyError, match=r"no latency data for pair \('t0', 't9'\)"):
            evaluator.fast_context().execution_time(start.with_assignment(5, "t9"))
        # Nothing was staged: the walk goes on from the committed state.
        assert inc.propose_move(Move.replace(5, "t8")) == evaluator.fast_context().execution_time(
            start.with_assignment(5, "t8")
        )
        inc.reject()
        assert inc.execution_time == s0
        assert_state_is_fresh(inc, start, "after the refusals")


class TestTogglesAreTables:
    """A toggle substitutes a table in ``EvaluationContext.__init__``;
    the kernels never learn which one they were handed."""

    #: One process per node, heavy co-location, and everything on one node.
    MAPPINGS = [
        TaskMapping(TERM_NODES[:TERM_RANKS]),
        TaskMapping(["t0", "t0", "t1", "t1", "t2", "t3"]),
        TaskMapping(["t4"] * TERM_RANKS),
    ]

    def test_no_load_latency_is_the_load_adjusted_one_read_on_an_idle_system(self):
        no_load = term_evaluator(EvaluationOptions(load_adjusted_latency=False)).fast_context()
        idle = term_evaluator(EvaluationOptions(cpu_availability=False), idle=True).fast_context()
        stretched = 0
        for mapping in self.MAPPINGS:
            pos = no_load.positions(mapping)
            counts = [pos.count(j) for j in range(no_load.nnodes)]
            # The loaded context still prices R_i off its live ACPU ...
            live = no_load.acpu_by_node(counts)
            stretched += min(live) < 1.0
            for rank in range(TERM_RANKS):
                # ... but every term is the idle system's, to the last bit.
                assert no_load.comm_terms(rank, pos, live) == idle.comm_terms(
                    rank, pos, idle.acpu_by_node(counts)
                )
            assert no_load.rows(mapping)[1] == idle.rows(mapping)[1]
        assert stretched == len(self.MAPPINGS)  # the instance discriminates

    def test_no_communication_is_empty_message_groups(self):
        evaluator = term_evaluator(EvaluationOptions(communication=False))
        ctx = evaluator.fast_context()
        assert ctx.groups == [[] for _ in range(TERM_RANKS)]
        assert not any(ctx._peer_patches) and not any(ctx._rank_messages)
        inc = evaluator.incremental()
        inc.reset(self.MAPPINGS[0])
        for mapping, move in zip(
            self.MAPPINGS, [Move.swap(0, 5), Move.replace(4, "t0"), Move.replace(2, "t9")]
        ):
            pos = ctx.positions(mapping)
            r_arr, c_arr = ctx.rows(mapping)
            acpu = ctx.acpu_by_node([pos.count(j) for j in range(ctx.nnodes)])
            assert all(ctx.comm_terms(rank, pos, acpu) == [] for rank in range(TERM_RANKS))
            assert c_arr == [0.0] * TERM_RANKS
            assert inc.propose(mapping) == max(r_arr)
            inc.commit()
            moved = move.apply(mapping)
            assert inc.propose_move(move) == ctx.execution_time(moved)
            inc.commit()
            assert inc._terms == [[] for _ in range(TERM_RANKS)]
            assert inc._c == [0.0] * TERM_RANKS
            assert_state_is_fresh(inc, moved, move)
        want = [ctx.execution_time(mapping) for mapping in self.MAPPINGS]
        for backend in ("python", "numpy"):
            if backend == "numpy":
                pytest.importorskip("numpy")
            with mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": backend}):
                assert ctx.evaluate_many(self.MAPPINGS) == want

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"options": EvaluationOptions(communication=False)},
            {"groups": {rank: ([], []) for rank in range(TERM_RANKS)}},
        ],
        ids=["communication-off", "profile-without-messages"],
    )
    def test_no_group_anywhere_costs_no_term_work(self, kwargs):
        """The early exit is on the frozen data, whichever way the
        groups came to be empty: an NCS evaluation or move pays for its
        ``R_i`` and never enters the term routines."""
        evaluator = term_evaluator(**kwargs)
        ctx = evaluator.fast_context()
        inc = evaluator.incremental()
        assert inc.context is ctx
        off = mock.Mock(side_effect=AssertionError("term routine entered"))
        table = mock.MagicMock()
        table.__getitem__.side_effect = AssertionError("term table read")
        with (
            mock.patch.object(EvaluationContext, "_fill_terms", off),
            mock.patch.multiple(
                ctx, _rank_messages=table, _peer_patches=table, _group_messages=table
            ),
            mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": "python"}),
        ):
            inc.reset(self.MAPPINGS[1])
            for move in (Move.swap(0, 5), Move.replace(4, "t0"), Move.replace(2, "t9")):
                inc.propose_move(move)
                inc.commit()
            assert ctx.evaluate_many(self.MAPPINGS) == [
                ctx.execution_time(mapping) for mapping in self.MAPPINGS
            ]


class TestBreakdown:
    """``EvaluationContext.breakdown`` is ``predict()``: the same table,
    field for field and bit for bit, off the context's frozen tables."""

    @pytest.mark.parametrize("idle", [False, True], ids=["loaded", "idle"])
    @pytest.mark.parametrize("options", OPTION_COMBOS)
    def test_equals_predict_field_for_field(self, options, idle):
        """16 toggle combinations x 2 snapshots x 64 seeded mappings (2 048):
        the loaded snapshot has background and NIC load on every node."""
        evaluator = term_evaluator(options, idle=idle)
        assert idle or all(
            s.background_load > 0 and s.nic_load > 0 for s in evaluator.snapshot.states.values()
        )
        context = evaluator.fast_context()
        rng = spawn_rng(5, "breakdown", idle)
        # Ranks 0/1 share the 2-CPU t0 and 2/3 the 1-CPU t1: the curve's
        # k = 2 column meets snapshot.acpu(node, 2) on both kinds of node.
        mappings = [TaskMapping(["t0", "t0", "t1", "t1", "t2", "t3"])]
        # Then any node for any rank: most draws co-locate some pair.
        mappings += [
            TaskMapping([TERM_NODES[rng.integers(10)] for _ in range(TERM_RANKS)])
            for _ in range(63)
        ]
        assert 16 < sum(not m.is_one_per_node for m in mappings) < 64
        for mapping in mappings:
            table, want = context.breakdown(mapping), evaluator.predict(mapping)
            assert table.mapping is mapping
            for got, ref in zip(table.processes, want.processes, strict=True):
                assert (got.rank, got.node_id) == (ref.rank, ref.node_id)
                assert got.computation == ref.computation, (mapping, got.rank)
                assert got.communication == ref.communication, (mapping, got.rank)
            assert table.execution_time == want.execution_time
            assert table.critical_rank == want.critical_rank
            assert table.processes[5].communication == 0.0  # no group of its own

    def test_missing_pair_raises_the_same_keyerror(self):
        evaluator = term_evaluator(missing=[("t0", "t9"), ("t9", "t0")])
        mapping = TaskMapping(TERM_NODES[:TERM_RANKS]).with_assignment(5, "t9")
        with pytest.raises(KeyError) as want:
            evaluator.predict(mapping)
        with pytest.raises(KeyError) as got:
            evaluator.fast_context().breakdown(mapping)
        assert got.value.args == want.value.args == ("no latency data for pair ('t0', 't9')",)

    @pytest.mark.parametrize(
        "nodes", [TERM_NODES[:5], TERM_NODES[:7], [*TERM_NODES[:5], "mars-1"]]
    )
    def test_invalid_mapping_raises_the_same_error(self, nodes):
        evaluator = term_evaluator()
        with pytest.raises(InvalidMappingError) as want:
            evaluator.predict(TaskMapping(nodes))
        with pytest.raises(InvalidMappingError) as got:
            evaluator.fast_context().breakdown(TaskMapping(nodes))
        assert str(got.value) == str(want.value)


#: TERM_GROUPS with rank 0 sending rank 1 the same group twice, and rank 1
#: receiving it twice: four records of one message.
TWIN_GROUPS = {
    **TERM_GROUPS,
    0: (TERM_GROUPS[0][0] + [(1, 8192.0, 50)], TERM_GROUPS[0][1]),
    1: (TERM_GROUPS[1][0], TERM_GROUPS[1][1] + [(0, 8192.0, 50)]),
}


class TestEachMessagePricedOnce:
    """A message is a group of its sender and of its receiver; the full
    evaluation prices it once and hands both ranks the one term."""

    @pytest.mark.parametrize(
        "app, nprocs, messages", [(CG("A"), 8, 32), (LU("A"), 32, 288)], ids=["cg.A", "lu.A"]
    )
    def test_records_handed_to_the_term_kernel(self, app, nprocs, messages):
        service = CBES(single_switch("priced-once", 32))
        service.calibrate(seed=2)
        service.profile_application(app, nprocs, seed=0)
        evaluator = service.evaluator(app.name)
        context = evaluator.fast_context()
        assert sum(map(len, context.groups)) == 2 * messages
        handed: list[int] = []
        fill = EvaluationContext._fill_terms

        def counting(self, jobs, pos, acpu):
            handed.append(sum(len(records) for _, records in jobs))
            return fill(self, jobs, pos, acpu)

        mapping = TaskMapping(service.cluster.node_ids()[:nprocs])
        with mock.patch.object(EvaluationContext, "_fill_terms", counting):
            table = context.breakdown(mapping)
        assert handed == [messages]
        assert table == evaluator.predict(mapping)

    @pytest.mark.parametrize("options", OPTION_COMBOS)
    def test_a_rank_holding_two_equal_groups(self, options):
        evaluator = term_evaluator(options, groups=TWIN_GROUPS)
        context = evaluator.fast_context()
        keys = {record[1:] for records in context.groups for record in records}
        assert sorted(record[1:] for record in context._messages) == sorted(keys)
        if options.communication:  # all four records of the twin name one message
            (twin,) = [m for m, *key in context._messages if key == [0, 1, 50.0, 8192.0]]
            assert sum(refs.count(twin) for refs in context._group_messages) == 4
        rng = spawn_rng(9, "twin-groups")
        for _ in range(32):
            mapping = TaskMapping([TERM_NODES[rng.integers(10)] for _ in range(TERM_RANKS)])
            want = evaluator.predict(mapping)
            assert context.breakdown(mapping) == want
            assert context.rows(mapping) == (
                [p.computation for p in want.processes],
                [p.communication for p in want.processes],
            )


class TestEachMovePricesItsMessagesOnce:
    """The delta twin of :class:`TestEachMessagePricedOnce`: a move prices
    every message with a re-placed rank at an end once, and a peer's
    facing terms are read back from those prices, not priced again."""

    @pytest.mark.parametrize("app, nprocs", [(CG("A"), 8), (LU("A"), 32)], ids=["cg.A", "lu.A"])
    def test_records_handed_to_the_term_kernel(self, app, nprocs):
        service = CBES(single_switch("priced-once", nprocs + 8))
        service.calibrate(seed=2)
        service.profile_application(app, nprocs, seed=0)
        evaluator = service.evaluator(app.name)
        context = evaluator.fast_context()
        nodes = service.cluster.node_ids()
        touching = [
            {record[1:] for records in context.groups for record in records if r in record[1:3]}
            for r in range(nprocs)
        ]
        handed: list[int] = []
        fill = EvaluationContext._fill_terms

        def counting(self, jobs, pos, acpu):
            handed.append(sum(len(records) for _, records in jobs))
            return fill(self, jobs, pos, acpu)

        inc = evaluator.incremental()
        current = TaskMapping(nodes[:nprocs])  # one rank a node, 8 nodes free
        inc.reset(current)
        rng = spawn_rng(4, "priced-once", app.name)
        swaps = replaces = 0
        for step in range(96):
            rank = rng.integers(nprocs)
            assert context._peer_patches[rank]  # a move of it reaches peers' lists
            handed.clear()
            if step % 2:
                free = sorted(set(nodes) - set(current.as_tuple()))
                move = Move.replace(rank, free[rng.integers(len(free))])
                with mock.patch.object(EvaluationContext, "_fill_terms", counting):
                    got = inc.propose_move(move)
                assert handed == [len(touching[rank])], step  # exactly its messages
                replaces += 1
            else:
                other = (rank + 1 + rng.integers(nprocs - 1)) % nprocs
                move = Move.swap(rank, other)
                with mock.patch.object(EvaluationContext, "_fill_terms", counting):
                    got = inc.propose_move(move)
                (count,) = handed  # at most the two ranks' messages
                assert len(touching[rank] | touching[other]) <= count, step
                assert count <= len(touching[rank]) + len(touching[other]), step
                swaps += 1
            assert got == context.execution_time(move.apply(current))
            inc.commit()
            current = move.apply(current)
            assert_state_is_fresh(inc, current, (step, move))
        assert swaps == replaces == 48


class TestSizeTables:
    """While no node holds two ranks, the delta kernel reads each message's
    term off its size's latency table (``acpu`` None to ``_fill_terms``);
    otherwise it computes it.  Either way the energy and the committed
    state are a fresh evaluation's, bit for bit."""

    @staticmethod
    def walk(evaluator, start: TaskMapping, steps: int = 600, seed: int = 9) -> list[bool]:
        """A random move chain from *start*, every energy and committed state
        held ``==`` a fresh evaluation; per pricing proposal, whether it read
        the tables.  A tenth of the replaces may land on an occupied node."""
        context = evaluator.fast_context()
        inc = evaluator.incremental()
        inc.reset(start)
        branches: list[bool] = []
        fill = EvaluationContext._fill_terms

        def spy(self, jobs, pos, acpu):
            branches.append(acpu is None)
            return fill(self, jobs, pos, acpu)

        rng = spawn_rng(seed, "size-tables")
        current, tabled = start, []
        for step in range(steps):
            rank = rng.integers(TERM_RANKS)
            kind = rng.random()
            if kind < 0.5:
                move = Move.swap(rank, rng.integers(TERM_RANKS))
            else:
                used = set(current.as_tuple())
                free = [nid for nid in TERM_NODES if nid not in used]
                pool = TERM_NODES if kind < 0.55 or not free else free
                move = Move.replace(rank, pool[rng.integers(len(pool))])
            candidate = move.apply(current)
            branches.clear()
            with mock.patch.object(EvaluationContext, "_fill_terms", spy):
                got = inc.propose_move(move)
            tabled += branches
            assert branches in ([], [candidate.is_one_per_node]), (step, move)
            assert got == context.execution_time(candidate), (step, move)
            if rng.random() < 0.6:
                inc.commit()
                current = candidate
            else:
                inc.reject()
            assert_state_is_fresh(inc, current, (step, move))
        return tabled

    @pytest.mark.parametrize(
        "options",
        [
            EvaluationOptions(),
            EvaluationOptions(load_adjusted_latency=False),
            EvaluationOptions(cpu_availability=False),
        ],
        ids=["loaded", "load-adjusted-latency-off", "cpu-availability-off"],
    )
    def test_tables_price_as_the_arithmetic(self, options):
        evaluator = term_evaluator(options)
        context = evaluator.fast_context()
        tabled = self.walk(evaluator, TaskMapping(TERM_NODES[:TERM_RANKS]))
        assert tabled.count(True) > 200 and tabled.count(False) > 20
        stretch, tables = context._tables
        # TERM_GROUPS has 13 sizes: 8 tabled, the rest computed beside them.
        assert len({id(t) for t in tables if t is not None}) == 8 and None in tables
        if options == EvaluationOptions():  # a loaded snapshot stretches the endpoint terms
            assert context._idle_acpu is None and min(stretch) < 1.0
        else:
            assert stretch == [1.0] * len(TERM_NODES)

    def test_a_shared_node_prices_by_arithmetic_until_it_empties(self):
        evaluator = term_evaluator()
        start = TaskMapping(["t0", "t0", "t1", "t2", "t3", "t4"])
        tabled = self.walk(evaluator, start)
        assert tabled[0] is False  # ranks 0 and 1 share t0
        assert True in tabled  # ... until one of them leaves it

    def test_at_most_eight_sizes_get_a_table(self):
        """19 sizes: the one every rank sends gets a table, and of the 18
        that one message each carries, the 7 smallest."""
        groups = {
            rank: (
                [((rank + 1) % TERM_RANKS, 100.0 * (3 * rank + k + 1), 1 + k) for k in range(3)]
                + [((rank + 2) % TERM_RANKS, 99999.0, 4)],
                [],
            )
            for rank in range(TERM_RANKS)
        }
        evaluator = term_evaluator(groups=groups)
        tabled = self.walk(evaluator, TaskMapping(TERM_NODES[:TERM_RANKS]), steps=300)
        assert True in tabled
        context = evaluator.fast_context()
        _, tables = context._tables
        assert len({size for *_, size in context._messages}) == 19
        want = {99999.0, *(100.0 * k for k in range(1, 8))}
        assert [size in want for *_, size in context._messages] == [
            t is not None for t in tables
        ]

    def test_a_missing_pair_is_refused_as_before(self):
        evaluator = term_evaluator(missing=[("t0", "t9"), ("t9", "t0")])
        inc = evaluator.incremental()
        inc.reset(TaskMapping(TERM_NODES[:TERM_RANKS]))
        with pytest.raises(KeyError, match=r"no latency data for pair \('t9', 't0'\)"):
            inc.propose_move(Move.replace(1, "t9"))  # ranks 0 and 1 message each other
        inc.propose_move(Move.replace(1, "t8"))
        assert evaluator.fast_context()._tables is None  # a context with gaps computes

    def test_a_pickled_context_carries_no_tables_and_prices_the_same(self):
        evaluator = term_evaluator()
        context = evaluator.fast_context()
        start = TaskMapping(TERM_NODES[:TERM_RANKS])
        chain = TestSharedContext.walk(5, 300)
        energies = []
        for ctx in (context, None):
            if ctx is None:
                assert context._tables is not None
                ctx = pickle.loads(pickle.dumps(context))
                assert ctx._tables is None
            inc = IncrementalEvaluator(ctx, start)
            run = []
            for move, accept in chain:
                run.append(inc.propose_move(move))
                inc.commit() if accept else inc.reject()
            energies.append(run)
        assert energies[0] == energies[1]

    def test_threads_building_the_tables_at_once_price_alike(self):
        """Eight threads, switching every microsecond, make their first
        proposal on one fresh context: each may build the tables."""
        context = term_evaluator().fast_context()
        start = TaskMapping(TERM_NODES[:TERM_RANKS])
        move = Move.replace(2, "t8")
        barrier = threading.Barrier(8)
        energies: list[float] = []

        def first_proposal():
            inc = IncrementalEvaluator(context, start)
            barrier.wait()
            energies.append(inc.propose_move(move))

        threads = [threading.Thread(target=first_proposal) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert energies == [context.execution_time(move.apply(start))] * 8


class TestSharedContext:
    """Evaluators on the daemon's job threads share one cached context;
    one evaluator's proposals never reach another's state."""

    @staticmethod
    def walk(seed: int, steps: int) -> list[tuple[Move, bool]]:
        rng = spawn_rng(seed, "shared-context")
        chain = []
        for _ in range(steps):
            rank = rng.integers(TERM_RANKS)
            if rng.random() < 0.5:
                move = Move.swap(rank, rng.integers(TERM_RANKS))
            else:  # any node, occupied ones included: co-locates and separates
                move = Move.replace(rank, TERM_NODES[rng.integers(10)])
            chain.append((move, rng.random() < 0.5))
        return chain

    def test_interleaved_evaluators_each_end_as_their_solo_run(self):
        context = term_evaluator().fast_context()
        starts = [TaskMapping(TERM_NODES[:TERM_RANKS]), TaskMapping(TERM_NODES[4:])]
        chains = [self.walk(1, 400), self.walk(2, 400)]

        solo = []
        for start, chain in zip(starts, chains):
            inc = IncrementalEvaluator(context, start)
            energies = []
            for move, accept in chain:
                energies.append(inc.propose_move(move))
                inc.commit() if accept else inc.reject()
            solo.append((energies, inc))

        pair = [IncrementalEvaluator(context, start) for start in starts]
        current = list(starts)
        energies: list[list[float]] = [[], []]
        for step, steps in enumerate(zip(*chains)):
            for i, (move, _) in enumerate(steps):  # both propose before either resolves
                energies[i].append(pair[i].propose_move(move))
            for i, (move, accept) in enumerate(steps):
                if accept:
                    pair[i].commit()
                    current[i] = move.apply(current[i])
                else:
                    pair[i].reject()
                assert_state_is_fresh(pair[i], current[i], (step, i, accept))
        for i, (want, alone) in enumerate(solo):
            assert energies[i] == want
            inc = pair[i]
            assert (inc._pos, inc._r, inc._c, inc._terms, inc.execution_time) == (
                alone._pos, alone._r, alone._c, alone._terms, alone.execution_time
            ), i


    def test_threads_on_one_context_each_end_as_their_solo_run(self):
        """Four job threads, switching every microsecond, over one context."""
        context = term_evaluator().fast_context()
        start = TaskMapping(TERM_NODES[:TERM_RANKS])
        chains = [self.walk(seed, 300) for seed in range(4)]

        def run(chain, out=None):
            inc = IncrementalEvaluator(context, start)
            energies = []
            for move, accept in chain:
                energies.append(inc.propose_move(move))
                inc.commit() if accept else inc.reject()
            result = (energies, inc._pos, inc._terms, inc.execution_time)
            if out is not None:
                out.append(result)
            return result

        solo = [run(chain) for chain in chains]
        outs: list[list] = [[] for _ in chains]
        threads = [
            threading.Thread(target=run, args=(chain, out)) for chain, out in zip(chains, outs)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [out[0] for out in outs] == solo


class TestLeftFold:
    """``C_i`` is a plain left fold; CPython >= 3.12 compensates ``sum``."""

    def test_fold_is_uncompensated(self):
        terms = [1e16, 1.0, -1e16, 1.0]
        total = 0.0
        for term in terms:
            total += term
        assert left_fold(terms) == total == 1.0  # a compensated sum says 2.0
        assert left_fold([]) == 0.0
        assert math.fsum(terms) == 2.0

    def test_every_kernel_folds_the_same_way(self):
        """One huge term, then nine below half its ulp: the plain fold
        drops them all, a compensated one keeps them."""
        groups = {rank: ([], []) for rank in range(TERM_RANKS)}
        groups[0] = ([(1, 1024.0, 2**55)] + [(1, 1024.0, 1)] * 9, [])
        groups[2] = ([(0, 64.0, 3)], [])  # a peer of 0 that is neither 0 nor 1
        inc = term_evaluator(groups=groups).incremental()
        ctx = inc.context
        start = TaskMapping(TERM_NODES[:TERM_RANKS])
        inc.reset(start)

        def check(mapping):
            pos = ctx.positions(mapping)
            acpu = ctx.acpu_by_node([pos.count(j) for j in range(ctx.nnodes)])
            terms = ctx.comm_terms(0, pos, acpu)
            total = 0.0
            for term in terms:
                total += term
            assert total == terms[0] != math.fsum(terms)  # the instance discriminates
            want = total * ctx.lam[0]
            assert inc._c[0] == ctx.comm_time(0, pos, acpu) == ctx.rows(mapping)[1][0] == want

        check(start)  # the full form, through reset
        for move in (Move.replace(1, "t9"), Move.replace(0, "t8"), Move.swap(0, 1)):
            inc.propose_move(move)  # the patch form (rank 0 as a peer), then fresh lists
            inc.commit()
            start = move.apply(start)
            check(start)


class TestProposeCommitReject:
    def test_reject_preserves_state(self, service, app_name):
        evaluator = service.evaluator(app_name)
        pool = service.cluster.node_ids()
        inc = evaluator.incremental()
        base = TaskMapping(pool[:4])
        s0 = inc.reset(base)
        inc.propose(base.with_swap(0, 3))
        inc.reject()
        assert inc.execution_time == s0
        # A later propose against the same base still agrees.
        candidate = base.with_assignment(1, pool[6])
        assert inc.propose(candidate) == evaluator.execution_time(candidate)

    def test_commit_without_propose_raises(self, service, app_name):
        inc = service.evaluator(app_name).incremental()
        inc.reset(TaskMapping(service.cluster.node_ids()[:4]))
        inc.propose(TaskMapping(service.cluster.node_ids()[:4]).with_swap(0, 1))
        inc.commit()
        with pytest.raises(RuntimeError):
            inc.commit()

    @pytest.mark.parametrize("resolve", ["commit", "reject"])
    def test_first_propose_on_unbound_evaluator(self, service, app_name, resolve):
        """An evaluator that was never reset() treats its first propose()
        like any other: one evaluation, resolvable either way."""
        evaluator = service.evaluator(app_name)
        pool = service.cluster.node_ids()
        inc = evaluator.incremental()
        first = TaskMapping(pool[:4])
        start = evaluator.evaluations
        assert inc.propose(first) == evaluator.execution_time(first)
        assert evaluator.evaluations == start + 2  # the propose and the reference
        getattr(inc, resolve)()
        if resolve == "commit":
            assert inc.execution_time == evaluator.execution_time(first)
        else:
            assert inc.execution_time != inc.execution_time  # still unbound (NaN)
        # Either way the next proposal is served correctly.
        candidate = first.with_assignment(1, pool[6])
        assert inc.propose(candidate) == evaluator.execution_time(candidate)
        inc.commit()
        assert inc.execution_time == evaluator.execution_time(candidate)

    def test_noop_propose_returns_current(self, service, app_name):
        inc = service.evaluator(app_name).incremental()
        base = TaskMapping(service.cluster.node_ids()[:4])
        s0 = inc.reset(base)
        assert inc.propose(TaskMapping(base.as_tuple())) == s0
        inc.commit()
        assert inc.execution_time == s0


class TestWiring:
    def test_incremental_counts_into_evaluator_metric(self, service, app_name):
        evaluator = service.evaluator(app_name)
        start = evaluator.evaluations
        inc = evaluator.incremental()
        base = TaskMapping(service.cluster.node_ids()[:4])
        inc.reset(base)
        inc.propose(base.with_swap(0, 1))
        inc.commit()
        inc(base)
        assert evaluator.evaluations == start + 3

    def test_with_snapshot_carries_evaluation_counter(self, service, app_name):
        evaluator = service.evaluator(app_name)
        base = TaskMapping(service.cluster.node_ids()[:4])
        evaluator.predict(base)
        count = evaluator.evaluations
        assert count >= 1
        fresh = evaluator.with_snapshot(service.snapshot())
        assert fresh.evaluations == count

    def test_anneal_uses_incremental_protocol(self, service, app_name):
        evaluator = service.evaluator(app_name)
        pool = service.cluster.node_ids()
        inc = evaluator.incremental()
        assert supports_incremental(inc)
        assert not supports_incremental(evaluator.execution_time)
        rng = spawn_rng(3, "anneal-proto")
        schedule = AnnealingSchedule(moves_per_temperature=20, steps=12, patience=6)
        best_inc, energy_inc, _ = anneal(
            inc, TaskMapping(pool[:4]), MoveGenerator(pool), rng, schedule=schedule
        )
        rng = spawn_rng(3, "anneal-proto")
        best_ref, energy_ref, _ = anneal(
            evaluator.execution_time,
            TaskMapping(pool[:4]),
            MoveGenerator(pool),
            rng,
            schedule=schedule,
        )
        # Identical seeds and identical energies: the two searches are
        # one trajectory.
        assert (best_inc, energy_inc) == (best_ref, energy_ref)
        assert energy_inc == evaluator.execution_time(best_inc)

    def test_cs_fast_and_reference_paths_agree(self, service, app_name):
        pool = service.cluster.node_ids()
        schedule = AnnealingSchedule(moves_per_temperature=20, steps=12, patience=6)
        fast = service.schedule(app_name, CbesScheduler(schedule=schedule), pool, seed=11)
        # The time CS reports for its mapping is the reference's time.
        reference = service.evaluator(app_name).predict(fast.mapping).execution_time
        assert fast.predicted_time == reference
        assert fast.evaluations > 100  # cost metric survives the fast path


class TestContextCache:
    def test_context_cached_per_snapshot_fingerprint(self, service, app_name):
        evaluator = service.evaluator(app_name)
        assert evaluator.fast_context() is evaluator.fast_context()
        other = evaluator.fast_context(EvaluationOptions(communication=False))
        assert other is not evaluator.fast_context()
        assert other is evaluator.fast_context(EvaluationOptions(communication=False))

    def test_snapshot_fingerprint_tracks_content(self):
        snap = SystemSnapshot(
            states={"a": NodeState(0.5, 0.1), "b": NodeState()}, ncpus={"a": 2, "b": 1}
        )
        same = SystemSnapshot(
            states={"b": NodeState(), "a": NodeState(0.5, 0.1)}, ncpus={"b": 1, "a": 2}
        )
        assert snap.fingerprint() == same.fingerprint()
        assert snap.freeze().fingerprint() == snap.fingerprint()
        assert snap.with_load("a", 0.9).fingerprint() != snap.fingerprint()

    def test_context_validity_check(self, service, app_name):
        evaluator = service.evaluator(app_name)
        context = evaluator.fast_context()
        snap = service.snapshot()
        assert context.snapshot_fingerprint == snap.fingerprint()
        loaded = snap.with_load(service.cluster.node_ids()[0], 2.5)
        assert context.snapshot_fingerprint != loaded.fingerprint()


class TestFalsyZeroAcpuRegression:
    def test_zero_acpu_is_not_silently_replaced(self, service, app_name):
        """A legitimate acpu == 0.0 entry must reach the latency model.

        The old ``acpu.get(src) or snapshot.acpu(src)`` treated 0.0 as
        missing and silently substituted the colocation-unaware snapshot
        value; the latency model then accepted the wrong operating
        point.  With the membership check the 0.0 propagates and the
        model rejects it loudly (acpu must be in (0, 1]).
        """

        class SaturatedSnapshot(SystemSnapshot):
            def acpu(self, node_id: str, mapped_procs: int = 1) -> float:
                # Fully loaded once co-mapped; healthy-looking otherwise
                # (so the colocation-unaware fallback value differs).
                return 0.0 if mapped_procs >= 2 else 0.8

        base = service.evaluator(app_name)
        saturated = SaturatedSnapshot(
            states=dict(service.snapshot().states), ncpus=dict(service.snapshot().ncpus)
        )
        evaluator = base.with_snapshot(saturated)
        pool = service.cluster.node_ids()
        # Rank 0 sits alone on a healthy node; its neighbour peers share
        # a saturated node.  Rank 0's theta is evaluated first, so the
        # 0.0 entry is exercised through latency_fn before any R_i
        # division can trip over it.
        # The old `or` fallback would silently swap in 0.8 here and only
        # crash later (ZeroDivisionError in rank 1's R_i); the membership
        # check propagates the 0.0 and fails loudly at the latency model.
        colocated = TaskMapping([pool[0], pool[1], pool[1], pool[2]])
        with pytest.raises(ValueError, match="acpu"):
            evaluator.predict(colocated)


class TestDegenerateInputsRefused:
    """Inputs no evaluation could serve are refused where they enter —
    not discovered later by a search falling back to ``predict()``."""

    def test_out_of_range_peer_refused_at_profile_construction(self, service, app_name):
        profile = service.profile(app_name)
        doc = profile.to_dict()
        doc["processes"][1]["sends"].append([profile.nprocs, 1024.0, 1])
        with pytest.raises(ValueError, match="rank 1 communicates with unknown peer 4"):
            ApplicationProfile.from_dict(doc)
        bad = dataclasses.replace(
            profile.processes[2], recvs=(MessageGroup(profile.nprocs + 3, 8.0, 1),)
        )
        processes = (*profile.processes[:2], bad, *profile.processes[3:])
        with pytest.raises(ValueError, match="rank 2 communicates with unknown peer 7"):
            dataclasses.replace(profile, processes=processes)

    def test_out_of_range_peer_refused_in_segment_profiles(self, service, app_name):
        doc = service.profile(app_name).to_dict()
        segment = ApplicationProfile.from_dict(doc).to_dict()
        segment["processes"][0]["recvs"].append([99, 8.0, 1])
        doc["segments"] = {"0": segment}
        with pytest.raises(ValueError, match="unknown peer 99"):
            ApplicationProfile.from_dict(doc)

    def test_empty_node_table_refused_at_context_construction(self, service, app_name):
        with pytest.raises(ValueError, match="at least one node"):
            EvaluationContext(
                service.profile(app_name),
                service.cluster.latency_model,
                {},
                service.snapshot(),
            )

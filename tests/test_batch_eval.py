"""Properties of the batched evaluation kernel (``evaluate_many``).

The contract under test: a batch is *exactly* a loop.  For any
population of mappings, ``evaluate_many`` must equal (``==``)
element-wise the reference ``predict()`` and the scalar fast path, the
two backends (pure python and numpy) must produce bit-identical
energies, and the evaluation counters must be invariant to how the
population was submitted.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro._util import spawn_rng
from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.core.fast_eval import FastEvalUnavailable, active_backend
from repro.schedulers.genetic import score_population
from repro.workloads import CG, LU
from tests.conftest import OPTION_COMBOS

BACKENDS = ["python", "numpy"]


def _backend_env(backend: str) -> mock._patch_dict:
    if backend == "numpy":
        pytest.importorskip("numpy")
    return mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": backend})


@pytest.fixture(scope="module")
def service() -> CBES:
    # Two node flavours (mixed architectures) plus heterogeneous load so
    # every term of the formula — speed ratios, ACPU, NIC stretch,
    # colocation — differentiates the candidates.
    cluster = single_switch("batch", 10)
    service = CBES(cluster)
    service.calibrate(seed=5)
    service.profile_application(LU("A"), 6, seed=1)
    service.profile_application(CG("B"), 6, seed=1)
    for i, nid in enumerate(cluster.node_ids()):
        cluster.node(nid).background_load = 0.3 * (i % 4)
        cluster.node(nid).nic_load = 0.15 * (i % 3)
    return service


def random_population(pool, nprocs, count, seed):
    rng = spawn_rng(seed, "batch-pop")
    return [
        TaskMapping([pool[rng.choice(len(pool))] for _ in range(nprocs)])
        for _ in range(count)
    ]


class TestBatchEqualsLoop:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("options", OPTION_COMBOS)
    def test_matches_predict_element_wise(self, service, options, backend):
        evaluator = service.evaluator(LU("A").name, options=options)
        pool = service.cluster.node_ids()
        population = random_population(pool, 6, 32, seed=7)
        with _backend_env(backend):
            energies = evaluator.fast_context().evaluate_many(population)
        assert len(energies) == len(population)
        for mapping, energy in zip(population, energies, strict=True):
            ref = evaluator.predict(mapping).execution_time
            assert energy == ref

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_incremental_evaluator_loop(self, service, backend):
        evaluator = service.evaluator(CG("B").name)
        pool = service.cluster.node_ids()
        population = random_population(pool, 6, 24, seed=11)
        inc = evaluator.incremental()
        looped = [inc(m) for m in population]
        with _backend_env(backend):
            batched = inc.many(population)
        for a, b in zip(batched, looped, strict=True):
            assert a == b

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_and_singleton_batches(self, service, backend):
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        context = evaluator.fast_context()
        with _backend_env(backend):
            assert context.evaluate_many([]) == []
            single = TaskMapping(pool[:6])
            [energy] = context.evaluate_many([single])
        assert energy == context.execution_time(single)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_heavy_colocation_batches(self, service, backend):
        """Populations that pile many ranks on one node (ACPU-critical)."""
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        population = [
            TaskMapping([pool[0]] * 6),
            TaskMapping([pool[0]] * 5 + [pool[1]]),
            TaskMapping([pool[0], pool[1]] * 3),
            TaskMapping(pool[:6]),
        ]
        with _backend_env(backend):
            energies = evaluator.fast_context().evaluate_many(population)
        for mapping, energy in zip(population, energies, strict=True):
            assert energy == evaluator.predict(mapping).execution_time


class TestBackendEquality:
    @pytest.mark.parametrize("options", OPTION_COMBOS)
    def test_numpy_and_python_backends_bit_identical(self, service, options):
        pytest.importorskip("numpy")
        evaluator = service.evaluator(LU("A").name, options=options)
        pool = service.cluster.node_ids()
        population = random_population(pool, 6, 64, seed=13)
        context = evaluator.fast_context()
        with _backend_env("python"):
            py = context.evaluate_many(population)
        with _backend_env("numpy"):
            vec = context.evaluate_many(population)
        # Bit-identical, not approximately equal: the numpy kernel
        # replays the scalar operation order exactly.
        assert py == vec  # repro: disable=RPR104

    def test_auto_backend_resolves(self):
        with mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": "auto"}):
            assert active_backend() in ("python", "numpy")
        with mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": "python"}):
            assert active_backend() == "python"

    def test_unknown_backend_rejected(self):
        with mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": "fortran"}):
            with pytest.raises(ValueError, match="REPRO_EVAL_BACKEND"):
                active_backend()

    def test_explicit_numpy_without_numpy_raises(self, service):
        """REPRO_EVAL_BACKEND=numpy must fail loudly when numpy is absent."""
        with mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": "numpy"}):
            with mock.patch("repro.core.fast_eval.np", None):
                with pytest.raises(FastEvalUnavailable, match="numpy"):
                    active_backend()

    def test_python_fallback_when_numpy_absent(self, service):
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        population = random_population(pool, 6, 8, seed=17)
        context = evaluator.fast_context()
        with _backend_env("python"):
            expected = context.evaluate_many(population)
        with mock.patch.dict(os.environ, {"REPRO_EVAL_BACKEND": "auto"}):
            with mock.patch("repro.core.fast_eval.np", None):
                assert active_backend() == "python"
                assert context.evaluate_many(population) == expected  # repro: disable=RPR104


class TestCountersAndWiring:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_many_counts_one_evaluation_per_mapping(self, service, backend):
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        population = random_population(pool, 6, 9, seed=19)
        inc = evaluator.incremental()
        start = evaluator.evaluations
        with _backend_env(backend):
            inc.many(population)
        assert evaluator.evaluations == start + len(population)

    def test_execution_times_counts_and_orders(self, service):
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        population = random_population(pool, 6, 12, seed=23)
        start = evaluator.evaluations
        energies = evaluator.execution_times(population)
        assert evaluator.evaluations == start + len(population)
        for mapping, energy in zip(population, energies, strict=True):
            assert energy == evaluator.predict(mapping).execution_time
        assert evaluator.execution_times([]) == []

    def test_score_population_uses_batch_protocol(self, service):
        evaluator = service.evaluator(LU("A").name)
        pool = service.cluster.node_ids()
        population = random_population(pool, 6, 8, seed=29)
        inc = evaluator.incremental()
        batched = score_population(inc, population)
        plain = score_population(evaluator.execution_time, population)
        for a, b in zip(batched, plain, strict=True):
            assert a == b

"""Tests for the persistent warm worker pool (repro.search.pool).

Four contracts:

* **Fingerprints** — ``SearchSpec.fingerprint()`` is stable for one
  spec, equal for equivalent specs, and changes whenever any search
  input (pool, options, snapshot) changes — including a monitoring
  snapshot refresh, which is what invalidates stale worker caches.
* **Worker-side LRU** — the fingerprint-keyed TaskRunner cache hits,
  misses, evicts at capacity, and answers ``missing_spec`` when a task
  arrives by key only; cache events surface as telemetry counters.
* **Pool lifecycle** — lazy spawn, reuse across runs, growth by
  replacement, explicit shutdown, and the module-level singleton.
* **Identity** — warm, cold, and serial schedules are byte-identical
  across parallel degrees and across repeated warm calls, for every
  task kind on one pool, and across a worker death.
"""

import dataclasses
import os
import signal
import sys
from pathlib import Path

import pytest

from repro.schedulers import make_scheduler
from repro.schedulers.annealing import AnnealingSchedule
from repro.search import SaTask, SearchSpec, get_pool, shutdown_pool
from repro.search import pool as pool_mod
from repro.search.pool import PoolTask, WorkerPool
from repro.telemetry import MetricsRegistry, use_registry


def result_key(result):
    return (result.mapping.as_tuple(), result.predicted_time, result.evaluations)


@pytest.fixture(scope="module")
def evaluator_and_pool():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from bench_incremental_eval import build_workload

    return build_workload(12, 6)


@pytest.fixture()
def spec(evaluator_and_pool):
    evaluator, pool = evaluator_and_pool
    return SearchSpec.from_evaluator(evaluator.with_snapshot(evaluator.snapshot), pool)


#: The cheapest task there is: one temperature, a handful of moves.
TINY = AnnealingSchedule(steps=1, moves_per_temperature=4, patience=1)


def sa_task(index=0):
    return SaTask(index=index, seed=3, rng_parts=("warm-pool", index), schedule=TINY)


def counter_samples(registry: MetricsRegistry, name: str) -> dict:
    family = registry.snapshot().get(name, {"samples": []})
    return {tuple(sorted(s["labels"].items())): s["value"] for s in family["samples"]}


class TestFingerprint:
    def test_stable_and_memoized(self, spec):
        assert spec.fingerprint() == spec.fingerprint()
        assert len(spec.fingerprint()) == 32  # blake2b-16 hex

    def test_equivalent_specs_share_a_fingerprint(self, evaluator_and_pool):
        evaluator, pool = evaluator_and_pool
        a = SearchSpec.from_evaluator(evaluator.with_snapshot(evaluator.snapshot), pool)
        b = SearchSpec.from_evaluator(evaluator.with_snapshot(evaluator.snapshot), pool)
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_pool_change_changes_fingerprint(self, evaluator_and_pool, spec):
        evaluator, pool = evaluator_and_pool
        other = SearchSpec.from_evaluator(evaluator, pool[: len(pool) - 1])
        assert other.fingerprint() != spec.fingerprint()

    def test_snapshot_refresh_changes_fingerprint(self, evaluator_and_pool, spec):
        """A monitoring refresh must invalidate cached worker contexts."""
        evaluator, pool = evaluator_and_pool
        snapshot = evaluator.snapshot
        nid = next(iter(snapshot.states))
        refreshed = dataclasses.replace(
            snapshot,
            timestamp=snapshot.timestamp + 5.0,
            states={
                **dict(snapshot.states),
                nid: dataclasses.replace(snapshot.states[nid], background_load=0.75),
            },
        )
        stale = SearchSpec.from_evaluator(evaluator.with_snapshot(refreshed), pool)
        assert stale.fingerprint() != spec.fingerprint()

    def test_fingerprint_survives_pickling(self, spec):
        import pickle

        clone = pickle.loads(pickle.dumps(spec))
        assert clone.fingerprint() == spec.fingerprint()


class TestWorkerCacheLru:
    """Drive the worker-side cache in-process (no executor needed)."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_CACHE", "2")
        pool_mod._initialize_pool_worker()
        yield
        pool_mod._initialize_pool_worker()

    def envelope(self, spec, *, with_spec=True):
        return PoolTask(
            key=spec.fingerprint(), task=sa_task(), spec=spec if with_spec else None
        )

    def test_miss_then_hit(self, spec):
        first = pool_mod._run_pool_task(self.envelope(spec))
        assert (first.misses, first.hits) == (1, 0)
        assert first.outcome is not None
        second = pool_mod._run_pool_task(self.envelope(spec, with_spec=False))
        assert (second.misses, second.hits) == (0, 1)
        assert second.outcome == first.outcome

    def test_key_only_without_cached_runner_asks_for_spec(self, spec):
        reply = pool_mod._run_pool_task(self.envelope(spec, with_spec=False))
        assert reply.missing_spec
        assert reply.outcome is None

    def test_eviction_at_capacity(self, evaluator_and_pool):
        evaluator, pool = evaluator_and_pool
        specs = [
            SearchSpec.from_evaluator(evaluator, pool[: len(pool) - i]) for i in range(3)
        ]
        assert len({s.fingerprint() for s in specs}) == 3
        replies = [pool_mod._run_pool_task(self.envelope(s)) for s in specs]
        assert [r.misses for r in replies] == [1, 1, 1]
        # Capacity 2: inserting the third evicted the least-recent (first).
        assert [r.evictions for r in replies] == [0, 0, 1]
        evicted = pool_mod._run_pool_task(self.envelope(specs[0], with_spec=False))
        assert evicted.missing_spec
        kept = pool_mod._run_pool_task(self.envelope(specs[2], with_spec=False))
        assert kept.hits == 1


class TestPoolLifecycle:
    def test_lazy_spawn_and_reuse(self, spec):
        wp = WorkerPool(idle_timeout_s=None)
        try:
            assert wp.workers == 0 and wp.spawns == 0
            first = wp.run(spec, [sa_task()], workers=1)
            second = wp.run(spec, [sa_task()], workers=1)
            assert wp.spawns == 1  # same executor served both runs
            assert wp.workers == 1
            assert first == second  # (outcome, telemetry delta) pairs
        finally:
            wp.shutdown()

    def test_grows_by_replacement(self, spec):
        wp = WorkerPool(idle_timeout_s=None)
        try:
            wp.run(spec, [sa_task()], workers=1)
            pairs = wp.run(spec, [sa_task(i) for i in range(4)], workers=2)
            assert wp.spawns == 2 and wp.workers == 2
            assert [outcome.index for outcome, _ in pairs] == [0, 1, 2, 3]
        finally:
            wp.shutdown()

    def test_shutdown_goes_cold_then_respawns(self, spec):
        wp = WorkerPool(idle_timeout_s=None)
        try:
            wp.run(spec, [sa_task()], workers=1)
            wp.shutdown()
            assert wp.workers == 0
            [(outcome, _)] = wp.run(spec, [sa_task()], workers=1)
            assert outcome.energy > 0
            assert wp.spawns == 2
        finally:
            wp.shutdown()

    def test_singleton_identity_and_teardown(self):
        shutdown_pool()
        a = get_pool()
        b = get_pool()
        assert a is b
        shutdown_pool()
        c = get_pool()
        assert c is not a
        shutdown_pool()

    def test_cache_event_counters(self, spec):
        registry = MetricsRegistry()
        wp = WorkerPool(idle_timeout_s=None)
        try:
            with use_registry(registry):
                wp.run(spec, [sa_task()], workers=1)
                wp.run(spec, [sa_task()], workers=1)
            events = counter_samples(registry, "cbes_worker_cache_events_total")
            assert events[(("event", "miss"),)] == 1
            assert events[(("event", "hit"),)] == 1
            spawns = counter_samples(registry, "cbes_pool_spawns_total")
            assert spawns[()] == 1
        finally:
            wp.shutdown()

    def test_stale_fingerprint_misses_after_snapshot_refresh(self, evaluator_and_pool):
        evaluator, pool = evaluator_and_pool
        snapshot = evaluator.snapshot
        spec_a = SearchSpec.from_evaluator(evaluator.with_snapshot(snapshot), pool)
        refreshed = dataclasses.replace(snapshot, timestamp=snapshot.timestamp + 9.0)
        spec_b = SearchSpec.from_evaluator(evaluator.with_snapshot(refreshed), pool)
        assert spec_a.fingerprint() != spec_b.fingerprint()
        registry = MetricsRegistry()
        wp = WorkerPool(idle_timeout_s=None)
        try:
            with use_registry(registry):
                wp.run(spec_a, [sa_task()], workers=1)
                wp.run(spec_b, [sa_task()], workers=1)
            events = counter_samples(registry, "cbes_worker_cache_events_total")
            # Two distinct fingerprints: the refresh cannot hit the stale
            # cached context.
            assert events[(("event", "miss"),)] == 2
            assert (("event", "hit"),) not in events
        finally:
            wp.shutdown()


class TestWarmColdIdentity:
    @pytest.fixture(autouse=True)
    def clean_singleton(self):
        shutdown_pool()
        yield
        shutdown_pool()

    def run(self, evaluator_and_pool, *, parallel, name="cs", **options):
        evaluator, pool = evaluator_and_pool
        scheduler = make_scheduler(name, parallel=parallel, **options)
        ev = evaluator.with_snapshot(evaluator.snapshot)
        return result_key(scheduler.schedule(ev, pool, seed=29))

    def test_warm_equals_cold_equals_serial(self, evaluator_and_pool):
        serial = self.run(evaluator_and_pool, parallel=1, restarts=3)
        colds = []
        for _ in range(2):
            shutdown_pool()  # cold: the call pays spawn + spec ship + context build
            colds.append(self.run(evaluator_and_pool, parallel=2, restarts=3))
        assert get_pool().spawns == 1  # the second cold call got a new pool
        warm = self.run(evaluator_and_pool, parallel=2, restarts=3)
        assert get_pool().spawns == 1  # ... and the warm call reused it
        assert serial == colds[0] == colds[1] == warm

    def test_identical_across_parallel_degrees_on_one_pool(self, evaluator_and_pool):
        degrees = {
            parallel: self.run(evaluator_and_pool, parallel=parallel, restarts=3)
            for parallel in (1, 2, 4)
        }
        assert degrees[1] == degrees[2] == degrees[4]

    def test_every_task_kind_shares_one_pool(self, evaluator_and_pool):
        """SA restarts and GA island epochs at parallel=2, back to back:
        one executor serves both, and each equals its parallel=1 result."""
        baseline = get_pool().spawns
        parallel = (
            self.run(evaluator_and_pool, parallel=2, restarts=3),
            self.run(evaluator_and_pool, parallel=2, name="ga", islands=3),
        )
        assert get_pool().spawns == baseline + 1
        serial = (
            self.run(evaluator_and_pool, parallel=1, restarts=3),
            self.run(evaluator_and_pool, parallel=1, name="ga", islands=3),
        )
        assert parallel == serial
        assert get_pool().spawns == baseline + 1  # parallel=1 never touches the pool

    def test_dead_worker_heals_the_pool(self, evaluator_and_pool):
        """A SIGKILLed worker breaks the executor; the next run replaces
        it and still returns the parallel=1 result."""
        serial = self.run(evaluator_and_pool, parallel=1, restarts=3)
        assert self.run(evaluator_and_pool, parallel=2, restarts=3) == serial
        pool = get_pool()
        spawns = pool.spawns
        victim = next(iter(pool._executor._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        assert self.run(evaluator_and_pool, parallel=2, restarts=3) == serial
        assert pool.spawns == spawns + 1
        # Healed for good: the next call reuses the fresh executor.
        assert self.run(evaluator_and_pool, parallel=2, restarts=3) == serial
        assert pool.spawns == spawns + 1

"""Tests for the parallel portfolio search engine (repro.search).

The engine's contract has three legs, each covered here:

* **Picklability** — specs, snapshots, contexts and mappings survive the
  trip into worker processes (and drop process-local caches on the way).
* **Determinism** — ``parallel=1`` and ``parallel=N`` return identical
  mappings, predictions and evaluation counts for one master seed, for
  both the SA restart portfolio and the GA island model; restart seed
  substreams make each restart independent of the restart count.
* **Cancellation** — an expired ``time_budget`` returns the best-so-far
  instead of raising.

Daemon integration (workers / time_budget job fields) is covered at the
HTTP level.
"""

import ast
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cluster import single_switch
from repro.core import CBES, EvaluationOptions, TaskMapping
from repro.core.fast_eval import EvaluationContext, active_backend
from repro.schedulers import make_scheduler
from repro.schedulers.annealing import AnnealingSchedule
from repro.schedulers.genetic import GeneticParams
from repro.search import (
    ParallelPortfolio,
    SaTask,
    SearchSpec,
    TaskRunner,
    run_island_ga,
)
from repro.server import DaemonThread, ServerError
from repro.workloads import SyntheticBenchmark


def result_key(result):
    return (result.mapping.as_tuple(), result.predicted_time, result.evaluations)


@pytest.fixture(scope="module")
def evaluator_and_pool():
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from bench_incremental_eval import build_workload

    return build_workload(12, 6)


@pytest.fixture()
def fresh_evaluator(evaluator_and_pool):
    evaluator, pool = evaluator_and_pool
    # with_snapshot clones the evaluator (and resets nothing else), so
    # per-test evaluation counters don't leak between tests.
    return evaluator.with_snapshot(evaluator.snapshot), pool


class TestPicklability:
    def test_snapshot_round_trip(self, fresh_evaluator):
        evaluator, _ = fresh_evaluator
        snapshot = evaluator.snapshot
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.fingerprint() == snapshot.fingerprint()
        assert dict(clone.ncpus) == dict(snapshot.ncpus)

    def test_mapping_round_trip_recomputes_hash(self, fresh_evaluator):
        _, pool = fresh_evaluator
        mapping = TaskMapping(pool[:4])
        clone = pickle.loads(pickle.dumps(mapping))
        assert clone == mapping
        # The hash cache is salted per process; equality of hashes here
        # proves it was recomputed, not shipped.
        assert hash(clone) == hash(mapping)

    def test_context_round_trip_drops_memo(self, fresh_evaluator):
        evaluator, pool = fresh_evaluator
        context = evaluator.fast_context()
        m = TaskMapping(pool[:6])
        # Warm the numpy column mirrors (a no-op on the python backend),
        # then check they do not travel.
        served = context.evaluate_many([m, m])
        if active_backend() == "numpy":
            # Both kinds of warm state: the mirrors and, in the same
            # slot, the index arrays of the batch size just served.
            assert context._np_cache["rows"][0] == 2
        state = context.__getstate__()
        assert state["_np_cache"] is None
        assert not any(type(value).__module__.startswith("numpy") for value in state.values())
        clone = pickle.loads(pickle.dumps(context))
        assert clone._np_cache is None
        assert clone.snapshot_fingerprint == context.snapshot_fingerprint
        assert clone.execution_time(m) == pytest.approx(context.execution_time(m), abs=1e-12)
        assert clone.evaluate_many([m, m]) == served  # repro: disable=RPR104

    def test_spec_round_trip_evaluates_identically(self, fresh_evaluator):
        evaluator, pool = fresh_evaluator
        spec = SearchSpec.from_evaluator(evaluator, pool)
        spec.ensure_picklable()
        clone = pickle.loads(pickle.dumps(spec))
        m = TaskMapping(pool[:6])
        assert clone.build_evaluator().execution_time(m) == pytest.approx(
            evaluator.execution_time(m), abs=1e-12
        )

    def test_unpicklable_constraint_fails_fast(self, fresh_evaluator):
        evaluator, pool = fresh_evaluator
        bound_pool = set(pool[:8])
        spec = SearchSpec.from_evaluator(
            evaluator, pool, constraint=lambda m: set(m.nodes_used()) <= bound_pool
        )
        with pytest.raises(ValueError, match="module-level"):
            spec.ensure_picklable()


class TestSaDeterminism:
    @pytest.mark.parametrize("scheduler_name", ["cs", "ncs"])
    def test_parallel_degrees_agree(self, evaluator_and_pool, scheduler_name):
        """Acceptance: parallel in {1, 2, 4} => byte-identical results."""
        evaluator, pool = evaluator_and_pool
        results = {}
        for parallel in (1, 2, 4):
            scheduler = make_scheduler(scheduler_name, restarts=3, parallel=parallel)
            ev = evaluator.with_snapshot(evaluator.snapshot)
            results[parallel] = result_key(scheduler.schedule(ev, pool, seed=11))
        assert results[1] == results[2] == results[4]

    def test_maximize_direction_agrees_too(self, evaluator_and_pool):
        evaluator, pool = evaluator_and_pool
        results = {}
        for parallel in (1, 2):
            scheduler = make_scheduler(
                "cs", restarts=2, direction="maximize", parallel=parallel
            )
            ev = evaluator.with_snapshot(evaluator.snapshot)
            results[parallel] = result_key(scheduler.schedule(ev, pool, seed=3))
        assert results[1] == results[2]

    def test_restart_substreams_are_independent(self, fresh_evaluator):
        """Satellite 2: restart i's outcome does not depend on how many
        other restarts run beside it (the old shared-RNG coupling)."""
        evaluator, pool = fresh_evaluator
        spec = SearchSpec.from_evaluator(evaluator, pool)

        def tasks(n):
            return [
                SaTask(index=i, seed=5, rng_parts=("t", "restart", i)) for i in range(n)
            ]

        portfolio = ParallelPortfolio(1)
        two = portfolio.run_sa(spec, tasks(2)).outcomes
        four = portfolio.run_sa(spec, tasks(4)).outcomes
        for a, b in zip(two, four, strict=False):
            assert a.mapping == b.mapping
            assert a.energy == b.energy
            assert a.history == b.history

    def test_tie_break_prefers_lowest_index(self, fresh_evaluator):
        evaluator, pool = fresh_evaluator
        spec = SearchSpec.from_evaluator(evaluator, pool)
        # Identical rng_parts => identical outcomes => the reduction must
        # pick index 0 deterministically.
        tasks = [SaTask(index=i, seed=9, rng_parts=("same",)) for i in range(3)]
        result = ParallelPortfolio(1).run_sa(spec, tasks)
        best = min(result.outcomes, key=lambda o: (o.energy, o.index))
        assert best.index == 0
        assert result.mapping == best.mapping


class TestGaIslands:
    def test_parallel_degrees_agree(self, evaluator_and_pool):
        evaluator, pool = evaluator_and_pool
        results = {}
        for parallel in (1, 2):
            scheduler = make_scheduler("ga", islands=3, parallel=parallel)
            ev = evaluator.with_snapshot(evaluator.snapshot)
            results[parallel] = result_key(scheduler.schedule(ev, pool, seed=21))
        assert results[1] == results[2]

    def test_migration_spreads_elites(self, fresh_evaluator):
        """With migration every generation, every island's final best
        can be no worse than the globally best initial individual."""
        evaluator, pool = fresh_evaluator
        spec = SearchSpec.from_evaluator(evaluator, pool)
        params = GeneticParams(population=8, generations=6)
        result = run_island_ga(
            spec,
            params,
            islands=3,
            migration_interval=1,
            migrants=2,
            seed=4,
            rng_parts=("mig",),
        )
        assert len(result.islands) == 3
        # The best initial individual (history[0]) migrates ring-wide, so
        # no island can end worse than the worst initial best.
        worst_initial = max(island.history[0] for island in result.islands)
        for island in result.islands:
            assert min(island.fitness) <= worst_initial
        assert result.energy == min(min(i.fitness) for i in result.islands)

    def test_islands_param_validation(self):
        with pytest.raises(ValueError):
            make_scheduler("ga", islands=0)
        with pytest.raises(ValueError):
            make_scheduler("ga", islands=2, migrants=0)
        with pytest.raises(ValueError):
            make_scheduler("ga", islands=2, migration_interval=0)


class TestCancellation:
    def test_expired_budget_returns_best_so_far(self, fresh_evaluator):
        evaluator, pool = fresh_evaluator
        # A budget far smaller than one temperature step: the annealer
        # must still return a finished result, never raise.
        scheduler = make_scheduler(
            "cs",
            restarts=2,
            time_budget=1e-6,
            schedule=AnnealingSchedule(moves_per_temperature=200, steps=50, patience=50),
        )
        result = scheduler.schedule(evaluator, pool, seed=2)
        assert result.mapping.nprocs == evaluator.profile.nprocs
        assert result.predicted_time > 0

    def test_expired_budget_parallel_ga(self, fresh_evaluator):
        evaluator, pool = fresh_evaluator
        scheduler = make_scheduler("ga", islands=2, parallel=2, time_budget=1e-6)
        result = scheduler.schedule(evaluator, pool, seed=2)
        assert result.mapping.nprocs == evaluator.profile.nprocs

    def test_execution_option_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            make_scheduler("cs", parallel=0)
        with pytest.raises(ValueError, match="parallel"):
            make_scheduler("cs", parallel=True)
        with pytest.raises(ValueError, match="time_budget"):
            make_scheduler("cs", time_budget=-1)
        with pytest.raises(ValueError, match="time_budget"):
            make_scheduler("cs", time_budget=0)

    def test_schedulers_without_search_accept_execution_options(self, fresh_evaluator):
        evaluator, pool = fresh_evaluator
        for name in ("rs", "greedy"):
            scheduler = make_scheduler(name, parallel=4, time_budget=60.0)
            result = scheduler.schedule(evaluator, pool, seed=0)
            assert result.mapping.nprocs == evaluator.profile.nprocs


class TestServiceWiring:
    @pytest.fixture(scope="class")
    def service_and_app(self):
        service = CBES(single_switch("mini", 6))
        service.calibrate(seed=2)
        app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
        service.profile_application(app, 3, seed=1)
        return service, app.name

    def test_service_schedule_parallel_kwarg(self, service_and_app):
        service, app_name = service_and_app
        pool = service.cluster.node_ids()
        serial = service.schedule(app_name, make_scheduler("cs"), pool, seed=6)
        fanned = service.schedule(app_name, make_scheduler("cs", parallel=2), pool, seed=6)
        assert fanned.mapping == serial.mapping
        assert fanned.predicted_time == pytest.approx(serial.predicted_time, abs=1e-12)

    def test_daemon_validates_workers_and_budget(self, service_and_app):
        service, app_name = service_and_app
        with DaemonThread(service, workers=1, queue_limit=8) as server:
            client = server.client()
            for payload, fragment in [
                ({"workers": 0}, "workers"),
                ({"workers": True}, "workers"),
                ({"workers": "four"}, "workers"),
                ({"time_budget": -1}, "time_budget"),
                ({"time_budget": 0}, "time_budget"),
            ]:
                with pytest.raises(ServerError) as excinfo:
                    client.submit("schedule", app=app_name, **payload)
                assert excinfo.value.status == 400
                assert fragment in str(excinfo.value)
            # workers is a schedule-job field only.
            with pytest.raises(ServerError) as excinfo:
                client.submit(
                    "predict",
                    app=app_name,
                    nodes=service.cluster.node_ids()[:3],
                    workers=2,
                )
            assert excinfo.value.status == 400
            assert "unknown payload field(s) ['workers'] for a predict job" in str(excinfo.value)

    def test_daemon_parallel_job_matches_direct_run(self, service_and_app):
        """Acceptance: a workers=2 daemon job == a direct parallel run."""
        service, app_name = service_and_app
        pool = service.cluster.node_ids()
        direct = service.schedule(app_name, make_scheduler("cs"), pool, seed=8)
        with DaemonThread(service, workers=1, queue_limit=8) as server:
            client = server.client()
            remote = client.schedule(app_name, scheduler="cs", pool=pool, seed=8, workers=2)
        assert remote["mapping"] == list(direct.mapping.as_tuple())
        assert remote["predicted_time"] == pytest.approx(direct.predicted_time, abs=1e-12)


class TestInlineFastPathParity:
    def test_inline_context_reuse_matches_worker_built_context(self, fresh_evaluator):
        """The inline path hands the evaluator's cached context to the
        runner; a runner that builds its own context from the spec must
        produce the same outcome."""
        evaluator, pool = fresh_evaluator
        spec = SearchSpec.from_evaluator(evaluator, pool)
        task = SaTask(index=0, seed=13, rng_parts=("parity",))
        with_cache, _ = TaskRunner(spec, context=evaluator.fast_context()).run(task)
        self_built, _ = TaskRunner(spec).run(task)
        assert with_cache.mapping == self_built.mapping
        assert with_cache.energy == self_built.energy
        assert with_cache.evaluations == self_built.evaluations

    def test_inline_island_ga_takes_the_evaluators_cached_context(
        self, fresh_evaluator, monkeypatch
    ):
        """Two inline island schedules over one evaluator build one
        context between them (the parent built one per ``schedule()``),
        and the result is the one a self-built context gives."""
        evaluator, pool = fresh_evaluator
        built = []
        init = EvaluationContext.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EvaluationContext, "__init__", counting)
        scheduler = make_scheduler("ga", islands=3)
        first = result_key(scheduler.schedule(evaluator, pool, seed=21))
        second = result_key(scheduler.schedule(evaluator, pool, seed=21))
        assert len(built) == 1
        assert first == second
        # Without an evaluator every epoch's runner builds its own
        # context from the spec: same arithmetic, same result.
        spec = SearchSpec.from_evaluator(evaluator, pool)
        self_built = run_island_ga(
            spec,
            GeneticParams(),
            islands=3,
            migration_interval=5,
            migrants=2,
            seed=21,
            rng_parts=("GA", tuple(pool), evaluator.profile.app_name),
        )
        assert len(built) > 1
        assert (self_built.mapping.as_tuple(), self_built.energy) == first[:2]


class TestOnePath:
    """One evaluation path, one search runtime — kept so by the source."""

    REMOVED_OPTIONS = {"reuse_pool", "share_bound", "bound_margin", "use_fast_path"}

    @staticmethod
    def _sources():
        """``(path relative to src/repro, parsed module)`` for every source file."""
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            yield path.relative_to(root).as_posix(), ast.parse(path.read_text(), str(path))

    def test_no_fallback_handlers_options_or_second_executor(self):
        offenders = []
        executor_sites = []
        for where, tree in self._sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                    caught |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
                    if "FastEvalUnavailable" in caught:
                        offenders.append(f"{where}:{node.lineno} catches FastEvalUnavailable")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                    for name in sorted(names & self.REMOVED_OPTIONS):
                        offenders.append(f"{where}:{node.lineno} {node.name}({name}=)")
                elif isinstance(node, ast.ClassDef):
                    for stmt in node.body:
                        targets = (
                            [stmt.target] if isinstance(stmt, ast.AnnAssign)
                            else stmt.targets if isinstance(stmt, ast.Assign) else []
                        )
                        for target in targets:
                            if isinstance(target, ast.Name) and target.id in self.REMOVED_OPTIONS:
                                offenders.append(f"{where}:{stmt.lineno} {node.name}.{target.id}")
                elif isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if called == "ProcessPoolExecutor":
                        executor_sites.append(where)
        assert offenders == []
        assert executor_sites == ["search/pool.py"]

    def test_one_door_into_the_search_runtime(self):
        """``run_tasks`` alone picks inline or pool: the only caller of
        ``get_pool`` and, with the pool worker, the only builder of a
        ``TaskRunner``; the scan kind and the unused clamp stay gone."""
        gone = {"run_scan", "ScanTask", "ScanOutcome", "ScanResult", "effective_workers"}
        sites = {"get_pool": [], "TaskRunner": []}
        offenders = []

        def visit(where, node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if child.name in gone:
                        offenders.append(f"{where}:{child.lineno} {child.name}")
                    if not isinstance(child, ast.ClassDef):
                        inner = child.name
                elif isinstance(child, ast.Call):
                    func = child.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if called in sites:
                        sites[called].append(f"{where}:{scope}")
                visit(where, child, inner)

        for where, tree in self._sources():
            visit(where, tree, "<module>")
        assert offenders == []
        assert sites["get_pool"] == ["search/pool.py:run_tasks"]
        assert sorted(sites["TaskRunner"]) == [
            "search/pool.py:_run_pool_task",
            "search/pool.py:run_tasks",
        ]

    def test_an_ablation_is_a_table_not_a_branch(self):
        """Inside ``core/fast_eval.py`` the four toggles are read where
        the context freezes its tables and nowhere else, and so is the
        fair-share rule: no kernel keeps ``ncpus`` / ``bg`` columns to
        restate ``cpu_share`` from."""
        toggles = {field.name for field in dataclasses.fields(EvaluationOptions)}
        assert toggles == {
            "communication", "use_lambda", "load_adjusted_latency", "cpu_availability",
        }
        tree = dict(self._sources())["core/fast_eval.py"]
        [context] = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "EvaluationContext"
        ]
        [init] = [
            node for node in context.body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        ]
        frozen = {id(node) for node in ast.walk(init)}
        guarded = toggles | {"cpu_share", "ncpus", "_ncpus", "bg", "_bg", "background_load"}
        offenders = []
        reads = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if isinstance(name, str) and name in guarded:
                reads += name in toggles
                if id(node) not in frozen:
                    offenders.append(f"core/fast_eval.py:{node.lineno} {name}")
        assert offenders == []
        assert reads == len(toggles)  # each toggle is applied exactly once

    def test_one_remap_tick_one_verdict(self):
        """Only ``remap/loop.py`` drives a drift watcher or asks a
        remapper to propose, only the remapper reaches its own verdict,
        the flat advisor's and the second driver's names are gone, and
        ``repro.core`` imports nothing that sits above it."""
        guarded = {"observe": "watcher", "rebase": "watcher", "propose": "remapper"}
        gone = (
            "RemapAdvisor", "RemapDecision",
            "RemapTrigger", "RunningApplication", "RuntimeScheduler",
        )
        above_core = ("repro.remap", "repro.schedulers", "repro.server")
        tick_sites = set()
        verdict_sites = set()
        offenders = []
        for where, tree in self._sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    receiver = node.func.value
                    owner = getattr(receiver, "attr", getattr(receiver, "id", ""))
                    kind = guarded.get(node.func.attr)
                    if kind is not None and kind in owner:
                        tick_sites.add(where)
                    if node.func.attr == "decide":
                        verdict_sites.add(where)
                names = [
                    getattr(node, field, None) for field in ("id", "attr", "name", "asname")
                ]
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names += [name for name in gone if name in node.value]  # docstrings
                for name in names:
                    if name in gone:
                        offenders.append(f"{where}:{getattr(node, 'lineno', 0)} {name}")
                if where.startswith("core/") and isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [alias.name for alias in node.names]
                    if isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""] + [f"{node.module}.{m}" for m in modules]
                    for module in modules:
                        if module.startswith(above_core):
                            offenders.append(f"{where}:{node.lineno} imports {module}")
        assert tick_sites == {"remap/loop.py"}
        assert verdict_sites == {"remap/remapper.py"}
        assert offenders == []

    def test_core_loads_nothing_above_it(self):
        """A fresh ``import repro.core`` pulls in none of the layers above."""
        above = ("remap", "schedulers", "search", "server", "telemetry")
        code = "import sys, repro.core; print(sorted(m for m in sys.modules if m[:6] == 'repro.'))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = ast.literal_eval(proc.stdout)
        assert "repro.core.service" in loaded
        assert [name for name in loaded if name.split(".")[1] in above] == []

"""Tests for repro.telemetry: metrics, tracing, exporters, and the wiring.

Four layers are covered:

* **Primitives** — registry declaration rules, thread-safe exact counting,
  histogram bucket boundaries, callback gauges, and the Null no-ops.
* **Exporters** — Prometheus text exposition (escaping, cumulative
  buckets) of ``snapshot()``.
* **Aggregation** — ``absorb`` folds ``snapshot()`` documents: pickled
  or not, in any partition, refusing a malformed one whole; it renders a
  fleet merge byte-for-byte as before, and keeps search-side counters
  identical between ``parallel=1`` and ``parallel=N`` runs (the PR 3
  determinism contract, extended to telemetry).
* **Traces** — stages nest into one trace per tracer-held root, and a
  search's task spans come home from pool workers, so ``parallel=1``
  and ``parallel=N`` record the same tree.
* **Surface** — the daemon's ``/v1/metrics`` + ``/v1/traces`` endpoints,
  the access-log/metrics guarantee on error responses, and the
  ``repro metrics`` CLI.
"""

import ast
import math
import os
import pickle
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.cluster import single_switch
from repro.core import CBES
from repro.schedulers import make_scheduler
from repro.server import DaemonThread, ServerError
from repro.telemetry import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    snapshot_to_prometheus,
    use_registry,
)
from repro.workloads import SyntheticBenchmark

# ---------------------------------------------------------------------------
# registry primitives


class TestRegistry:
    def test_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("cbes_things_total", help="things", labelnames=("kind",))
        again = registry.counter("cbes_things_total", help="ignored", labelnames=("kind",))
        assert first is again

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("cbes_things_total")
        with pytest.raises(MetricError, match="already declared as a counter"):
            registry.gauge("cbes_things_total")  # repro: disable=RPR106

    def test_labelname_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("cbes_things_total", labelnames=("kind",))
        with pytest.raises(MetricError, match="already declared with labels"):
            registry.counter("cbes_things_total", labelnames=("other",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("CamelCase")  # repro: disable=RPR106
        with pytest.raises(MetricError):
            registry.counter("cbes_ok_total", labelnames=("Bad-Label",))

    def test_wrong_label_set_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("cbes_things_total", labelnames=("kind",))
        with pytest.raises(MetricError, match="expected labels"):
            counter.inc(flavor="x")
        with pytest.raises(MetricError, match="expected labels"):
            counter.inc()  # labels required but omitted

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="only increase"):
            registry.counter("cbes_things_total").labels().inc(-1)

    def test_callback_gauge_reads_live_and_survives_breakage(self):
        registry = MetricsRegistry()
        box = {"value": 1.0}
        registry.gauge("cbes_live", callback=lambda: box["value"])
        assert registry.snapshot()["cbes_live"]["samples"][0]["value"] == 1.0
        box["value"] = 7.5
        assert registry.snapshot()["cbes_live"]["samples"][0]["value"] == 7.5

        registry.gauge("cbes_broken", callback=lambda: 1 / 0)
        sample = registry.snapshot()["cbes_broken"]["samples"][0]
        assert math.isnan(sample["value"])  # a broken callback must not kill a scrape

    def test_callback_gauge_with_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="callback gauges"):
            registry.gauge("cbes_live", labelnames=("kind",), callback=lambda: 1.0)

    def test_concurrent_increments_count_exactly(self):
        """Acceptance: lock-striped updates lose nothing under contention."""
        registry = MetricsRegistry()
        counter = registry.counter("cbes_hits_total", labelnames=("worker",))
        histogram = registry.histogram("cbes_lat_seconds")
        threads, per_thread = 8, 2000

        def hammer(worker_id: int) -> None:
            for i in range(per_thread):
                counter.inc(worker=worker_id % 2)
                histogram.observe(0.25 if i % 2 else 0.75)

        pool = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        snap = registry.snapshot()
        totals = [s["value"] for s in snap["cbes_hits_total"]["samples"]]
        assert totals == [threads // 2 * per_thread, threads // 2 * per_thread]
        hist = snap["cbes_lat_seconds"]["samples"][0]
        assert hist["count"] == threads * per_thread
        buckets = dict(hist["buckets"])
        assert buckets[0.1] == 0
        assert buckets[0.25] == threads * per_thread // 2
        assert buckets[1.0] == threads * per_thread

    def test_histogram_bucket_boundaries_are_le_inclusive(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("cbes_lat_seconds")
        child = histogram.labels()
        child.observe(0.1)  # exactly on a bound -> that bucket
        child.observe(0.1000001)  # just over -> next bucket
        child.observe(100.0)  # beyond the last bound -> +Inf only
        sample = registry.snapshot()["cbes_lat_seconds"]["samples"][0]
        assert [bound for bound, _ in sample["buckets"]] == list(DEFAULT_BUCKETS)
        buckets = dict(sample["buckets"])  # cumulative
        assert (buckets[0.05], buckets[0.1], buckets[0.25], buckets[60.0]) == (0, 1, 2, 2)
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(100.2000001)

    def test_snapshot_is_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        counter = registry.counter("cbes_z_total", labelnames=("kind",))
        registry.counter("cbes_a_total").labels().inc()
        counter.inc(kind="zebra")
        counter.inc(kind="ant")
        snap = registry.snapshot()
        assert list(snap) == ["cbes_a_total", "cbes_z_total"]
        kinds = [s["labels"]["kind"] for s in snap["cbes_z_total"]["samples"]]
        assert kinds == ["ant", "zebra"]


class TestNullImplementations:
    def test_null_registry_is_api_compatible_noop(self):
        registry = NullRegistry()
        child = registry.counter("cbes_things_total", labelnames=("kind",))
        child.inc(kind="x")
        child.labels(kind="x").inc()
        registry.gauge("cbes_depth").set(4)
        registry.histogram("cbes_lat_seconds").observe(0.5)
        assert registry.snapshot() == {}

    def test_ambient_defaults_to_disabled(self):
        assert not telemetry.enabled()
        assert isinstance(telemetry.get_registry(), NullRegistry)

    def test_use_registry_enables_within_context_only(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            assert telemetry.enabled()
            assert telemetry.get_registry() is registry
        assert not telemetry.enabled()

    def test_a_registry_is_ambient_only_where_a_job_thread_or_task_enters_it(self):
        """No process-global registry: in the package, only a daemon's job
        threads and a search task's private registry enter one."""
        assert not hasattr(telemetry, "set_registry")
        assert "set_registry" not in telemetry.__all__
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        enterers = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if any(
                (isinstance(node, ast.Attribute) and node.attr == "use_registry")
                or (isinstance(node, ast.Name) and node.id == "use_registry")
                or (isinstance(node, ast.alias) and node.name == "use_registry")
                for node in ast.walk(ast.parse(path.read_text()))
            )
        )
        assert enterers == ["search/pool.py", "server/execution.py"]


# ---------------------------------------------------------------------------
# exporters


class TestExporters:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        counter = registry.counter(
            "cbes_requests_total", help='requests "served"\nby route', labelnames=("route",)
        )
        counter.inc(route='/v1/"x"\\y\nz')
        registry.histogram("cbes_lat_seconds").observe(0.05)
        registry.gauge("cbes_depth", help="queue depth").set(3)
        return registry

    def test_prometheus_text_structure(self):
        text = snapshot_to_prometheus(self.make_registry().snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE cbes_requests_total counter" in lines
        assert "# TYPE cbes_lat_seconds histogram" in lines
        assert "# TYPE cbes_depth gauge" in lines
        assert "cbes_depth 3" in lines
        # Cumulative buckets, the +Inf catch-all, and sum/count lines.
        assert 'cbes_lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'cbes_lat_seconds_bucket{le="1"} 1' in lines
        assert 'cbes_lat_seconds_bucket{le="+Inf"} 1' in lines
        assert "cbes_lat_seconds_sum 0.05" in lines
        assert "cbes_lat_seconds_count 1" in lines

    def test_prometheus_escaping(self):
        text = snapshot_to_prometheus(self.make_registry().snapshot())
        # Label values escape backslash, quote, and newline.
        assert '{route="/v1/\\"x\\"\\\\y\\nz"}' in text
        # Help text escapes backslash and newline but NOT quotes.
        assert '# HELP cbes_requests_total requests "served"\\nby route' in text

    def test_prometheus_empty_registry_renders_empty(self):
        assert snapshot_to_prometheus(MetricsRegistry().snapshot()) == ""
        assert snapshot_to_prometheus(NullRegistry().snapshot()) == ""


# ---------------------------------------------------------------------------
# spans


class TestSpans:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.trace("root", app="lu.A"):
            with telemetry.stage("child") as child:
                child.set_attribute("n", 3)
            with tracer.trace("sibling"):
                assert telemetry.tracing()
        assert not telemetry.tracing()

        traces = tracer.traces()
        assert len(traces) == 1
        tree = traces[0]
        assert tree["name"] == "root"
        assert tree["attributes"] == {"app": "lu.A"}
        assert [c["name"] for c in tree["children"]] == ["child", "sibling"]
        assert tree["children"][0]["attributes"] == {"n": 3}
        # Children share the root's trace id but have their own span ids.
        ids = {tree["span_id"]} | {c["span_id"] for c in tree["children"]}
        assert len(ids) == 3
        assert all(c["trace_id"] == tree["trace_id"] for c in tree["children"])
        assert tree["duration_s"] >= max(c["duration_s"] for c in tree["children"])

    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("root"):
                with tracer.trace("inner"):
                    raise RuntimeError("boom")
        tree = tracer.traces()[0]
        assert tree["status"] == "error"
        assert tree["children"][0]["status"] == "error"

    def test_ring_buffer_keeps_newest(self):
        tracer = Tracer(max_traces=3)
        for i in range(5):
            with tracer.trace(f"t{i}"):
                pass
        assert [t["name"] for t in tracer.traces()] == ["t4", "t3", "t2"]
        assert [t["name"] for t in tracer.traces(limit=1)] == ["t4"]

    def test_threads_do_not_interleave(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(tag: str) -> None:
            with tracer.trace(f"root-{tag}"):
                barrier.wait(timeout=5)
                with tracer.trace(f"child-{tag}"):
                    pass

        threads = [threading.Thread(target=worker, args=(t,)) for t in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = {t["name"]: t for t in tracer.traces()}
        assert set(roots) == {"root-a", "root-b"}
        for tag in ("a", "b"):
            assert [c["name"] for c in roots[f"root-{tag}"]["children"]] == [f"child-{tag}"]

    def test_a_stage_outside_a_trace_times_and_observes_but_records_nothing(self):
        registry, tracer = MetricsRegistry(), Tracer()
        seconds = registry.histogram("cbes_x_seconds", "x", ("kind",))
        with telemetry.stage("x", seconds, kind="a", other=1) as span:
            assert not telemetry.tracing()
            with tracer.trace("inner"):  # a root of its own trace, not a child
                pass
        assert span.duration_s > 0 and span.children == []
        assert [t["name"] for t in tracer.traces()] == ["inner"]
        [sample] = registry.snapshot()["cbes_x_seconds"]["samples"]
        assert sample["labels"] == {"kind": "a"} and sample["sum"] == span.duration_s

    def test_a_raising_stage_observes_nothing(self):
        registry = MetricsRegistry()
        seconds = registry.histogram("cbes_x_seconds", "x")
        with pytest.raises(RuntimeError):
            with telemetry.stage("x", seconds):
                raise RuntimeError("boom")
        assert registry.snapshot()["cbes_x_seconds"]["samples"] == []

    def test_perf_counter_is_read_only_by_the_stage_clock(self):
        """One clock: every timed section of the package is a stage."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        readers = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if any(
                (isinstance(node, ast.Attribute) and node.attr == "perf_counter")
                or (isinstance(node, ast.Name) and node.id == "perf_counter")
                or (isinstance(node, ast.alias) and node.name == "perf_counter")
                for node in ast.walk(ast.parse(path.read_text()))
            )
        )
        assert readers == ["telemetry/spans.py"]


# ---------------------------------------------------------------------------
# cross-process aggregation


def observe_workload(registry: MetricsRegistry, items: range) -> None:
    counter = registry.counter("cbes_work_total", help="work", labelnames=("kind",))
    histogram = registry.histogram("cbes_work_seconds")
    for i in items:
        counter.inc(kind="even" if i % 2 == 0 else "odd")
        histogram.observe((i % 20) / 10.0)


def replica_documents() -> list[dict]:
    """Two replicas' scrapes as the router collects them: overlapping and
    disjoint samples, a family one replica declared but never touched, a
    broken callback gauge, and histograms off both ends of the buckets."""
    first, second = MetricsRegistry(), MetricsRegistry()
    for registry in (first, second):
        registry.counter("cbes_worker_cache_events_total", "Cache events.", ("event",))
    jobs = first.counter("cbes_jobs_total", "Job state transitions.", ("kind", "state"))
    jobs.inc(3, kind="schedule", state="done")
    jobs.inc(2, kind="predict", state="done")
    latency = first.histogram("cbes_request_seconds", "HTTP latency.", ("route",))
    latency.observe(0.004, route="/v1/jobs")
    latency.observe(0.2, route="/v1/jobs")
    first.gauge("cbes_queue_depth", "Jobs waiting.").set(2)
    first.gauge("cbes_snapshot_age_seconds", "Snapshot age.", callback=lambda: 1 / 0)
    first.counter("cbes_escaped_total", 'a "quoted"\\ help\nover two lines').inc(1.5)
    jobs = second.counter("cbes_jobs_total", "Job state transitions.", ("kind", "state"))
    jobs.inc(4, kind="schedule", state="done")
    jobs.inc(kind="compare", state="failed")
    events = second.counter("cbes_worker_cache_events_total", "Cache events.", ("event",))
    events.inc(7, event="hit")
    events.inc(event="miss")
    latency = second.histogram("cbes_request_seconds", "HTTP latency.", ("route",))
    latency.observe(75.0, route="/v1/jobs")
    latency.observe(0.004, route="/v1/jobs")
    second.gauge("cbes_queue_depth", "Jobs waiting.").set(1)
    second.gauge("cbes_snapshot_age_seconds", "Snapshot age.", callback=lambda: 12.5)
    return [first.snapshot(), second.snapshot()]


#: What the fleet merge that ``absorb`` replaced rendered for
#: :func:`replica_documents`, captured from it verbatim.
MERGED_REPLICA_TEXT = """\
# HELP cbes_escaped_total a "quoted"\\\\ help\\nover two lines
# TYPE cbes_escaped_total counter
cbes_escaped_total 1.5
# HELP cbes_jobs_total Job state transitions.
# TYPE cbes_jobs_total counter
cbes_jobs_total{kind="compare",state="failed"} 1
cbes_jobs_total{kind="predict",state="done"} 2
cbes_jobs_total{kind="schedule",state="done"} 7
# HELP cbes_queue_depth Jobs waiting.
# TYPE cbes_queue_depth gauge
cbes_queue_depth 3
# HELP cbes_request_seconds HTTP latency.
# TYPE cbes_request_seconds histogram
cbes_request_seconds_bucket{route="/v1/jobs",le="0.001"} 0
cbes_request_seconds_bucket{route="/v1/jobs",le="0.0025"} 0
cbes_request_seconds_bucket{route="/v1/jobs",le="0.005"} 2
cbes_request_seconds_bucket{route="/v1/jobs",le="0.01"} 2
cbes_request_seconds_bucket{route="/v1/jobs",le="0.025"} 2
cbes_request_seconds_bucket{route="/v1/jobs",le="0.05"} 2
cbes_request_seconds_bucket{route="/v1/jobs",le="0.1"} 2
cbes_request_seconds_bucket{route="/v1/jobs",le="0.25"} 3
cbes_request_seconds_bucket{route="/v1/jobs",le="0.5"} 3
cbes_request_seconds_bucket{route="/v1/jobs",le="1"} 3
cbes_request_seconds_bucket{route="/v1/jobs",le="2.5"} 3
cbes_request_seconds_bucket{route="/v1/jobs",le="5"} 3
cbes_request_seconds_bucket{route="/v1/jobs",le="10"} 3
cbes_request_seconds_bucket{route="/v1/jobs",le="30"} 3
cbes_request_seconds_bucket{route="/v1/jobs",le="60"} 3
cbes_request_seconds_bucket{route="/v1/jobs",le="+Inf"} 4
cbes_request_seconds_sum{route="/v1/jobs"} 75.208
cbes_request_seconds_count{route="/v1/jobs"} 4
# HELP cbes_snapshot_age_seconds Snapshot age.
# TYPE cbes_snapshot_age_seconds gauge
cbes_snapshot_age_seconds NaN
# HELP cbes_worker_cache_events_total Cache events.
# TYPE cbes_worker_cache_events_total counter
cbes_worker_cache_events_total{event="hit"} 7
cbes_worker_cache_events_total{event="miss"} 1
"""


def absorbed(*documents: dict) -> MetricsRegistry:
    registry = MetricsRegistry()
    for document in documents:
        registry.absorb(document)
    return registry


class TestAbsorb:
    """``snapshot()`` is the one way out of a registry, ``absorb`` the one way in."""

    def test_snapshot_absorb_round_trip(self):
        source = MetricsRegistry()
        observe_workload(source, range(50))
        source.gauge("cbes_depth").set(9)
        assert absorbed(source.snapshot()).snapshot() == source.snapshot()

    def test_pickled_snapshot_absorbs_identically(self):
        source = MetricsRegistry()
        observe_workload(source, range(10))
        shipped = pickle.loads(pickle.dumps(source.snapshot()))
        assert absorbed(shipped).snapshot() == absorbed(source.snapshot()).snapshot()
        assert absorbed(shipped).snapshot() == source.snapshot()

    def test_merge_is_independent_of_partitioning(self):
        """The aggregate must not depend on how work landed on workers."""

        def partitioned(cuts: list[int]) -> dict:
            bounds = [0, *cuts, 100]
            documents = []
            for lo, hi in zip(bounds, bounds[1:], strict=False):
                worker = MetricsRegistry()
                observe_workload(worker, range(lo, hi))
                documents.append(worker.snapshot())
            return absorbed(*documents).snapshot()

        serial = partitioned([])
        assert partitioned([50]) == serial
        assert partitioned([13, 50, 51, 90]) == serial

    def test_zero_sample_family_then_sampled_one(self):
        """A declared-but-untouched labelled family carries its labelnames,
        so a later sampled document of the same family still fits."""
        declared, sampled = MetricsRegistry(), MetricsRegistry()
        declared.counter("cbes_x_total", "x", ("event",))
        sampled.counter("cbes_x_total", "x", ("event",)).inc(event="hit")
        assert declared.snapshot()["cbes_x_total"]["labelnames"] == ["event"]
        merged = absorbed(declared.snapshot(), sampled.snapshot()).snapshot()
        assert merged == sampled.snapshot()

    @pytest.mark.parametrize(
        "document",
        [
            [],
            {"cbes_x_total": {"type": "counter"}},
            {"cbes_x_total": {"type": "summary", "help": "", "labelnames": [], "samples": []}},
            {"Bad-Name": {"type": "counter", "help": "", "labelnames": [], "samples": []}},
            {"cbes_x_total": {"type": "counter", "help": "", "labelnames": [],
                              "samples": [{"labels": {"kind": "a"}, "value": 1}]}},
            {"cbes_x_total": {"type": "counter", "help": "", "labelnames": [],
                              "samples": [{"labels": {}, "value": -1}]}},
            {"cbes_x_total": {"type": "counter", "help": "", "labelnames": [],
                              "samples": [{"labels": {}, "value": "1"}]}},
            {"cbes_x_seconds": {"type": "histogram", "help": "", "labelnames": [],
                                "samples": [{"labels": {}, "buckets": [[1.0, 1]],
                                             "sum": 1.0, "count": 1}]}},
            {"cbes_x_seconds": {"type": "histogram", "help": "", "labelnames": [],
                                "samples": [{"labels": {}, "count": 1, "sum": 1.0,
                                             "buckets": [[b, 1] for b in DEFAULT_BUCKETS[:-1]]
                                             + [[DEFAULT_BUCKETS[-1], 0]]}]}},
            # Contradicts what the target already declares.
            {"cbes_held_total": {"type": "gauge", "help": "", "labelnames": [], "samples": []}},
            {"cbes_held_total": {"type": "counter", "help": "", "labelnames": ["kind"],
                                 "samples": []}},
            {"cbes_live": {"type": "gauge", "help": "", "labelnames": [],
                           "samples": [{"labels": {}, "value": 1.0}]}},
        ],
    )
    def test_refused_document_changes_nothing(self, document):
        target = MetricsRegistry()
        target.counter("cbes_held_total").labels().inc(2)
        target.gauge("cbes_live", callback=lambda: 4.0)
        before = target.snapshot()
        # A valid family ahead of the bad one must not be absorbed either.
        if isinstance(document, dict):
            document = {"cbes_a_total": before["cbes_held_total"], **document}
        with pytest.raises(MetricError):
            target.absorb(document)
        assert target.snapshot() == before

    def test_fleet_text_matches_the_merge_it_replaced(self):
        registry = absorbed(*replica_documents())
        assert snapshot_to_prometheus(registry.snapshot()) == MERGED_REPLICA_TEXT


class TestSearchDeterminism:
    """parallel=1 vs parallel=N: identical results AND identical counters."""

    @pytest.fixture(scope="class")
    def evaluator_and_pool(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
        from bench_incremental_eval import build_workload

        return build_workload(10, 5)

    @staticmethod
    def run_with_metrics(evaluator, pool, name: str, parallel: int, **kwargs):
        registry = MetricsRegistry()
        scheduler = make_scheduler(name, parallel=parallel, **kwargs)
        ev = evaluator.with_snapshot(evaluator.snapshot)
        with use_registry(registry):
            result = scheduler.schedule(ev, pool, seed=13)
        snap = registry.snapshot()
        # Infrastructure counters are inherently degree-dependent: the
        # inline path rebuilds one context where N workers build N, and
        # only the pooled path spawns workers / fills worker caches.
        # The *search* counters are the determinism contract.
        infra = {
            "cbes_context_builds_total",
            "cbes_worker_cache_events_total",
            "cbes_pool_spawns_total",
            "cbes_pool_spec_resends_total",
        }
        counters = {
            metric: [(tuple(sorted(s["labels"].items())), s["value"]) for s in family["samples"]]
            for metric, family in snap.items()
            if family["type"] == "counter" and metric not in infra
        }
        key = (result.mapping.as_tuple(), result.predicted_time, result.evaluations)
        return key, counters

    def test_sa_portfolio_counters_agree_across_degrees(self, evaluator_and_pool):
        evaluator, pool = evaluator_and_pool
        one = self.run_with_metrics(evaluator, pool, "cs", 1, restarts=2)
        two = self.run_with_metrics(evaluator, pool, "cs", 2, restarts=2)
        assert one == two
        _, counters = one
        assert counters["cbes_evaluations_total"][0][1] > 0
        assert "cbes_sa_moves_total" in counters
        assert "cbes_search_tasks_total" in counters

    def test_ga_islands_counters_agree_across_degrees(self, evaluator_and_pool):
        evaluator, pool = evaluator_and_pool
        one = self.run_with_metrics(evaluator, pool, "ga", 1, islands=2)
        two = self.run_with_metrics(evaluator, pool, "ga", 2, islands=2)
        assert one == two
        _, counters = one
        assert counters["cbes_ga_generations_total"][0][1] > 0

    @staticmethod
    def traced(evaluator, pool, parallel: int) -> dict:
        tracer = Tracer()
        ev = evaluator.with_snapshot(evaluator.snapshot)
        with tracer.trace("caller"):
            make_scheduler("cs", parallel=parallel, restarts=3).schedule(ev, pool, seed=13)
        [trace] = tracer.traces()
        return trace

    def test_trace_tree_agrees_across_degrees(self, evaluator_and_pool):
        """Task spans come home from the workers: the same tree at
        parallel=1 and parallel=2, bar durations, clocks, ids and pids."""
        evaluator, pool = evaluator_and_pool

        def shape(span: dict) -> tuple:
            attributes = {k: v for k, v in span["attributes"].items() if k != "pid"}
            return (span["name"], span["status"], sorted(attributes.items()),
                    [shape(child) for child in span["children"]])

        def walk(span: dict):
            yield span
            for child in span["children"]:
                yield from walk(child)

        one = self.traced(evaluator, pool, 1)
        two = self.traced(evaluator, pool, 2)
        assert shape(one) == shape(two)
        [run] = two["children"]
        assert run["name"] == "scheduler.run"
        tasks = [span for span in run["children"] if span["name"] == "search.task"]
        assert len(tasks) == 3
        assert all(task["attributes"]["pid"] != os.getpid() for task in tasks)
        assert all(task["attributes"]["pid"] == os.getpid() for task in walk(one)
                   if task["name"] == "search.task")
        spans = list(walk(two))
        assert len({span["span_id"] for span in spans}) == len(spans)
        assert {span["trace_id"] for span in spans} == {two["trace_id"]}


# ---------------------------------------------------------------------------
# the daemon surface


def make_service() -> tuple[CBES, str]:
    service = CBES(single_switch("mini", 6))
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.2, duration_s=2.0, steps=4)
    service.profile_application(app, 3, seed=1)
    return service, app.name


@pytest.fixture(scope="module")
def service_and_app():
    return make_service()


@pytest.fixture(scope="module")
def server(service_and_app):
    service, _ = service_and_app
    with DaemonThread(service, workers=2, queue_limit=8) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return server.client()


@pytest.fixture(scope="module")
def scheduled(client, service_and_app):
    """One completed schedule job, so job/search metrics are non-zero."""
    _, app_name = service_and_app
    return client.schedule(app_name, scheduler="cs", seed=7)


REQUIRED_METRICS = (
    "cbes_requests_total",
    "cbes_request_seconds",
    "cbes_queue_depth",
    "cbes_snapshot_age_seconds",
    "cbes_evaluations_total",
    "cbes_jobs_total",
    "cbes_job_seconds",
    "cbes_schedule_seconds",
    "cbes_search_task_seconds",
    "cbes_uptime_seconds",
)


class TestDaemonSurface:
    def test_prometheus_endpoint_exposes_required_metrics(self, client, scheduled):
        text = client.metrics_text()
        for name in REQUIRED_METRICS:
            assert name in text, f"missing {name}"
        # Well-formed exposition: every non-comment line is `name[{labels}] value`.
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                sample, _, value = line.rpartition(" ")
                assert sample
                float(value)
        assert '{kind="schedule",state="done"}' in text

    def test_json_endpoint_matches_structure(self, client, scheduled):
        metrics = client.metrics()
        assert metrics["cbes_requests_total"]["type"] == "counter"
        assert metrics["cbes_request_seconds"]["type"] == "histogram"
        sample = metrics["cbes_request_seconds"]["samples"][0]
        assert sample["count"] >= 1 and sample["sum"] > 0

    def test_evaluations_counter_changes_across_jobs(self, client, service_and_app, scheduled):
        service, app_name = service_and_app

        def evaluations() -> float:
            samples = client.metrics()["cbes_evaluations_total"]["samples"]
            return sum(s["value"] for s in samples)

        before = evaluations()
        assert before > 0
        client.predict(app_name, list(service.cluster.node_ids())[:3])
        assert evaluations() > before

    def test_error_responses_are_counted_and_logged(self, client, caplog):
        """Satellite fix: the 404 path still produces metrics + access log."""
        with caplog.at_level("INFO", logger="repro.server.access"):
            with pytest.raises(ServerError):
                client.job("j999999")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if any("404" in r.getMessage() for r in caplog.records):
                    break
                time.sleep(0.01)
        assert any(
            "/v1/jobs/j999999" in r.getMessage() and "404" in r.getMessage()
            for r in caplog.records
        )
        text = client.metrics_text()
        assert 'cbes_requests_total{method="GET",route="/v1/jobs/{id}",status="404"}' in text

    def test_routes_are_templated_not_raw_paths(self, client, scheduled):
        metrics = client.metrics()
        routes = {s["labels"]["route"] for s in metrics["cbes_requests_total"]["samples"]}
        assert "/v1/jobs/{id}" in routes
        assert not any(route.startswith("/v1/jobs/j") for route in routes)

    def test_traces_endpoint_returns_job_trees(self, client, scheduled):
        traces = client.traces()
        jobs = [t for t in traces if t["name"] == "cbes.job"]
        assert jobs, f"no cbes.job roots in {[t['name'] for t in traces]}"
        job = jobs[-1]
        assert job["status"] == "ok"
        assert job["duration_s"] > 0
        assert job["attributes"]["kind"] == "schedule"
        assert job["attributes"]["evaluations"] > 0
        # The daemon drives the scheduler directly, so the search span
        # nests straight under the job span.
        runs = [c for c in job["children"] if c["name"] == "scheduler.run"]
        assert runs and runs[0]["attributes"]["evaluations"] > 0
        assert runs[0]["trace_id"] == job["trace_id"]

    def test_cbes_schedule_spans_under_the_callers_trace(self, service_and_app):
        """A library caller holds the tracer: CBES.schedule is a span of
        the trace the caller opened."""
        from repro.schedulers import CbesScheduler

        service, app_name = service_and_app
        tracer = Tracer()
        with tracer.trace("caller"):
            service.schedule(app_name, CbesScheduler(), list(service.cluster.node_ids()), seed=3)
        [root] = tracer.traces()
        [schedule] = root["children"]
        assert schedule["name"] == "cbes.schedule"
        assert schedule["attributes"]["app"] == app_name
        assert [c["name"] for c in schedule["children"]] == ["scheduler.run"]

    def test_two_daemons_in_one_process_record_apart(self):
        """A daemon's job threads record into its own registry: a search on
        d1 is on d1's ``/v1/metrics`` and on none of d2's, d1 still records
        after d2 stops, and the test thread records into neither."""
        searched = ("cbes_schedule_seconds", "cbes_search_task_seconds", "cbes_sa_moves_total")

        def recorded(client) -> dict[str, float]:
            metrics = client.metrics()
            return {
                name: sum(s.get("count", s.get("value")) for s in metrics[name]["samples"])
                for name in searched
                if metrics.get(name, {}).get("samples")
            }

        (s1, app), (s2, _) = make_service(), make_service()
        with DaemonThread(s1, workers=1) as d1:
            c1 = d1.client()
            with DaemonThread(s2, workers=1) as d2:
                assert not telemetry.enabled()
                c1.schedule(app, scheduler="cs", seed=7)
                first = recorded(c1)
                assert set(first) == set(searched)
                assert recorded(d2.client()) == {}
            assert not telemetry.enabled()
            c1.schedule(app, scheduler="cs", seed=8)
            second = recorded(c1)
            assert all(second[name] > first[name] for name in searched)

    def test_traces_limit_validation(self, client):
        assert client.traces(limit=1) == client.traces()[:1]
        for limit in ("nope", "-1"):
            with pytest.raises(ServerError) as excinfo:
                client._request("GET", f"/v1/traces?limit={limit}")
            assert excinfo.value.status == 400

    def test_metrics_cli_renders_table_and_raw(self, server, scheduled, capsys):
        from repro.cli import main

        endpoint = ["--host", server.host, "--port", str(server.port)]
        assert main(["metrics", *endpoint]) == 0
        out = capsys.readouterr().out
        assert "cbes_requests_total (counter)" in out
        assert "cbes_request_seconds (histogram)" in out

        assert main(["metrics", *endpoint, "--raw"]) == 0
        raw = capsys.readouterr().out
        assert "# TYPE cbes_requests_total counter" in raw

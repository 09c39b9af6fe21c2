"""Tests for the flat cost model (``repro.remap.cost.RemapCostModel``)
and the cost/benefit verdict it prices.

``TestRemapAdvisor`` keeps its name (and test ids) from the class it
used to cover: ``Remapper(cost_model=RemapCostModel(...),
safety_factor=1.0).decide(...)`` is that advisor.
"""

import pytest

from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.remap import RemapCostModel, Remapper
from repro.workloads import SyntheticBenchmark


def flat_remapper(cost_model: RemapCostModel | None = None) -> Remapper:
    return Remapper(cost_model=cost_model or RemapCostModel(), safety_factor=1.0)


class TestRemapCostModel:
    def test_no_move_no_cost(self):
        costs = RemapCostModel(fixed_s=1.0, per_task_s=0.5)
        m = TaskMapping(["a", "b"])
        assert costs.cost(m, m) == 0.0

    def test_cost_counts_moved_tasks(self):
        costs = RemapCostModel(fixed_s=1.0, per_task_s=0.5)
        assert costs.cost(TaskMapping(["a", "b", "c"]), TaskMapping(["a", "x", "y"])) == 2.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RemapCostModel().cost(TaskMapping(["a"]), TaskMapping(["a", "b"]))

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            RemapCostModel(fixed_s=-1.0)


class TestRemapAdvisor:
    @pytest.fixture
    def setup(self):
        cluster = single_switch("mini", 6)
        service = CBES(cluster)
        service.calibrate(seed=2)
        app = SyntheticBenchmark(comm_fraction=0.1, duration_s=60.0, steps=6)
        service.profile_application(app, 2, seed=0)
        return cluster, service, app

    def test_recommends_escape_from_loaded_node(self, setup):
        cluster, service, app = setup
        nodes = cluster.node_ids()
        current = TaskMapping(nodes[:2])
        candidate = TaskMapping(nodes[2:4])
        LoadGenerator(cluster).apply([LoadEvent(nodes[0], cpu_load=1.0)])
        plan = flat_remapper(RemapCostModel(fixed_s=0.5, per_task_s=0.25)).decide(
            service.evaluator(app.name), current, candidate, fraction_remaining=1.0
        )
        assert plan.remap
        assert plan.net_benefit_s > 0
        assert plan.migration_cost_s == 0.5 + 0.25 * 2
        assert [(m.rank, m.seconds) for m in plan.moves] == [(0, 0.25), (1, 0.25)]

    def test_rejects_when_little_work_remains(self, setup):
        cluster, service, app = setup
        nodes = cluster.node_ids()
        current = TaskMapping(nodes[:2])
        candidate = TaskMapping(nodes[2:4])
        LoadGenerator(cluster).apply([LoadEvent(nodes[0], cpu_load=1.0)])
        # Huge migration cost vs 1% of remaining work: stay put.
        plan = flat_remapper(RemapCostModel(fixed_s=100.0, per_task_s=10.0)).decide(
            service.evaluator(app.name), current, candidate, fraction_remaining=0.01
        )
        assert not plan.remap

    def test_identical_candidate_never_remaps(self, setup):
        cluster, service, app = setup
        current = TaskMapping(cluster.node_ids()[:2])
        plan = flat_remapper().decide(
            service.evaluator(app.name), current, current, fraction_remaining=0.5
        )
        assert not plan.remap
        assert plan.moves == ()
        assert plan.migration_cost_s == 0.0
        assert plan.net_benefit_s == pytest.approx(0.0)

    def test_fraction_validation(self, setup):
        cluster, service, app = setup
        current = TaskMapping(cluster.node_ids()[:2])
        with pytest.raises(ValueError):
            flat_remapper().decide(
                service.evaluator(app.name), current, current, fraction_remaining=0.0
            )
        with pytest.raises(ValueError):
            flat_remapper().decide(
                service.evaluator(app.name), current, current, fraction_remaining=1.2
            )

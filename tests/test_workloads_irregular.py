"""Tests for the irregular application model."""

import pytest

from repro.cluster import single_switch
from repro.core import CBES, TaskMapping
from repro.remap.drift import behaviour_drift
from repro.simulate import Compute
from repro.workloads import IrregularApplication


@pytest.fixture(scope="module")
def service():
    svc = CBES(single_switch("mini", 8))
    svc.calibrate(seed=1)
    return svc


class TestStructure:
    def test_validation(self):
        for bad in (
            dict(epochs=0),
            dict(steps_per_epoch=0),
            dict(work=0),
            dict(imbalance=-1),
            dict(degree=0),
            dict(msg_bytes=0),
            dict(drift=1.5),
        ):
            with pytest.raises(ValueError):
                IrregularApplication(**bad)

    def test_same_structure_seed_same_program(self):
        a = IrregularApplication(structure_seed=7).program(6)
        b = IrregularApplication(structure_seed=7).program(6)
        assert a.ops == b.ops

    def test_different_structure_seed_differs(self):
        a = IrregularApplication(structure_seed=7).program(6)
        b = IrregularApplication(structure_seed=8).program(6)
        assert a.ops != b.ops

    def test_imbalance_spreads_per_rank_work(self):
        prog = IrregularApplication(imbalance=1.0, structure_seed=1).program(8)
        per_rank = [
            sum(op.work for op in stream if isinstance(op, Compute)) for stream in prog.ops
        ]
        assert max(per_rank) > 2 * min(per_rank)

    def test_zero_imbalance_zero_drift_is_regular(self):
        prog = IrregularApplication(imbalance=0.0, drift=0.0, structure_seed=1).program(8)
        per_rank = [
            sum(op.work for op in stream if isinstance(op, Compute)) for stream in prog.ops
        ]
        assert max(per_rank) == pytest.approx(min(per_rank))

    def test_epoch_markers_present(self):
        prog = IrregularApplication(epochs=3, structure_seed=1).program(4)
        prog.validate()


class TestExecution:
    @pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
    def test_deadlock_free_across_sizes(self, service, nprocs):
        app = IrregularApplication(epochs=2, steps_per_epoch=3, structure_seed=11)
        ids = service.cluster.node_ids()[:nprocs]
        result = service.simulator.run(
            app.program(nprocs), {r: ids[r] for r in range(nprocs)}, seed=1,
            arch_affinity=app.arch_affinity,
        )
        assert result.total_time > 0

    def test_prediction_accuracy_on_profiled_mapping(self, service):
        app = IrregularApplication(structure_seed=5)
        mapping = TaskMapping(service.cluster.node_ids()[:8])
        service.profile_application(app, 8, mapping=mapping, seed=0)
        predicted = service.evaluator(app.name).execution_time(mapping)
        measured = service.simulator.run(
            app.program(8), mapping.as_dict(), seed=77, arch_affinity=app.arch_affinity
        ).total_time
        assert predicted == pytest.approx(measured, rel=0.1)

    def test_drift_triggers_internal_remap_signal(self, service):
        app = IrregularApplication(drift=1.0, imbalance=0.8, structure_seed=9)
        mapping = TaskMapping(service.cluster.node_ids()[:8])
        profile = service.profile_application(
            app, 8, mapping=mapping, seed=0, per_segment=True
        )
        fired = [
            seg for seg, active in profile.segments.items()
            if behaviour_drift(profile, active) > 0.25
        ]
        assert fired  # at least one epoch deviates from the aggregate

"""End-to-end integration tests across all subsystems.

These exercise the full paper pipeline: calibrate -> monitor -> profile
-> evaluate -> schedule -> measure, plus the headline scientific claims
at reduced scale.
"""

import pytest

from repro.cluster import orange_grove
from repro.core import CBES, EvaluationOptions, TaskMapping
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.remap import RemapCostModel, Remapper
from repro.schedulers import AnnealingSchedule, CbesScheduler, NoCommScheduler, RandomScheduler
from repro.workloads import LU, Aztec, Towhee

FAST_SA = AnnealingSchedule(moves_per_temperature=25, steps=15, patience=5)


class TestFullPipeline:
    def test_paper_lifecycle(self):
        """The complete CBES operational story on Orange Grove."""
        cluster = orange_grove()
        service = CBES(cluster)
        # 1. Off-line calibration (O(N) clique rounds).
        report = service.calibrate(seed=3)
        assert report.parallel_speedup > 5
        # 2. Monitoring daemons.
        service.start_monitoring(forecaster="last-value", sensor_noise=0.0)
        service.monitor.poll()
        # 3. Application profiling.
        app = LU("S")
        profile = service.profile_application(app, 8, seed=1)
        assert profile.nprocs == 8
        # 4. Mapping comparison request.
        alphas = cluster.nodes_by_arch("alpha-533")
        sparcs = cluster.nodes_by_arch("sparc-500")
        ranked = service.compare(
            app.name, [TaskMapping(sparcs), TaskMapping(alphas)]
        )
        assert ranked[0].mapping == TaskMapping(alphas)  # faster nodes win
        # 5. Scheduling.
        result = service.schedule(
            app.name, CbesScheduler(schedule=FAST_SA), alphas, seed=1
        )
        # 6. The selected mapping measures close to its prediction.
        measured = service.simulator.run(
            app.program(8), result.mapping.as_dict(), seed=9, arch_affinity=app.arch_affinity
        ).total_time
        assert result.predicted_time == pytest.approx(measured, rel=0.12)

    def test_monitor_feeds_evaluator(self, og_service):
        """Load seen by the monitor changes predictions accordingly."""
        service = og_service
        cluster = service.cluster
        alphas = cluster.nodes_by_arch("alpha-533")
        mapping = TaskMapping(alphas)
        idle_pred = service.evaluator("lu.A").execution_time(mapping)
        generator = LoadGenerator(cluster)
        with generator.loaded([LoadEvent(alphas[0], cpu_load=0.5)]):
            monitor = service.start_monitoring(forecaster="last-value", sensor_noise=0.0)
            monitor.poll()
            loaded_pred = service.evaluator("lu.A").execution_time(mapping)
        service._monitor = None  # detach for other tests
        assert loaded_pred > idle_pred * 1.2

    def test_remapping_story(self, og_service):
        """Load lands on a mapped node -> the verdict is to move."""
        service = og_service
        cluster = service.cluster
        alphas = cluster.nodes_by_arch("alpha-533")
        intels = cluster.nodes_by_arch("pii-400")
        current = TaskMapping(alphas)
        generator = LoadGenerator(cluster)
        with generator.loaded([LoadEvent(alphas[0], cpu_load=1.0)]):
            evaluator = service.evaluator("lu.A")
            candidate = TaskMapping([intels[0]] + alphas[1:])
            plan = Remapper(
                cost_model=RemapCostModel(fixed_s=1.0, per_task_s=0.5), safety_factor=1.0
            ).decide(evaluator, current, candidate, fraction_remaining=0.8)
        assert plan.remap
        assert plan.net_benefit_s > 0
        assert [m.rank for m in plan.moves] == [0]


class TestScientificClaims:
    """The paper's headline results, asserted at reduced scale."""

    def test_cs_beats_ncs_beats_nothing(self, og_service):
        """Section 6: CS > NCS ~ RS on measured time, via comm term alone."""
        service = og_service
        app = LU("A")
        alphas = service.cluster.nodes_by_arch("alpha-533")
        program = app.program(8)

        def measure(mapping, seed):
            return service.simulator.run(
                program, mapping.as_dict(), seed=seed,
                arch_affinity=app.arch_affinity, collect_trace=False,
            ).total_time

        cs_times, ncs_times = [], []
        for k in range(3):
            cs = service.schedule(app.name, CbesScheduler(schedule=FAST_SA), alphas, seed=50 + k)
            ncs = service.schedule(app.name, NoCommScheduler(schedule=FAST_SA), alphas, seed=50 + k)
            cs_times.append(measure(cs.mapping, 800 + k))
            ncs_times.append(measure(ncs.mapping, 800 + k))
        assert sum(cs_times) < sum(ncs_times)

    def test_architecture_zones_exist(self, og_service):
        """Figure 6: zone means separated by architecture mix."""
        service = og_service
        app = LU("A")
        cluster = service.cluster
        program = app.program(8)
        alphas = cluster.nodes_by_arch("alpha-533")
        sparcs = cluster.nodes_by_arch("sparc-500")
        intels = cluster.nodes_by_arch("pii-400")

        def measure(nodes):
            return service.simulator.run(
                program, TaskMapping(nodes).as_dict(), seed=7,
                arch_affinity=app.arch_affinity, collect_trace=False,
            ).total_time

        t_high = measure(alphas)
        t_medium = measure(alphas[:4] + intels[:4])
        t_low = measure(alphas[:4] + sparcs[:4])
        assert t_high < t_medium < t_low
        # Low zone ~1.5x high, medium ~1.15x high (paper's figure 6 bands).
        assert 1.2 < t_low / t_high < 1.9
        assert 1.05 < t_medium / t_high < 1.4

    def test_uncertain_apps_mapping_insensitive(self, og_service):
        """Table 3: EP-style apps gain nothing from scheduling."""
        service = og_service
        app = Towhee(work=40.0)
        intels = service.cluster.nodes_by_arch("pii-400")
        service.profile_application(app, 8, mapping=TaskMapping(intels[:8]), seed=0)
        program = app.program(8)
        times = []
        for k, sched in enumerate([CbesScheduler(schedule=FAST_SA), RandomScheduler()]):
            r = service.schedule(app.name, sched, intels, seed=60 + k)
            times.append(
                service.simulator.run(
                    program, r.mapping.as_dict(), seed=900,
                    arch_affinity=app.arch_affinity, collect_trace=False,
                ).total_time
            )
        spread = abs(times[0] - times[1]) / max(times)
        assert spread < 0.05

    def test_comm_heavy_app_benefits(self, og_service):
        """Table 3: Aztec-style halo apps show a clear best-worst gap."""
        service = og_service
        app = Aztec(200, niter=10)
        intels = service.cluster.nodes_by_arch("pii-400")
        service.profile_application(app, 8, mapping=TaskMapping(intels[:8]), seed=0)
        program = app.program(8)
        best = service.schedule(app.name, CbesScheduler(schedule=FAST_SA), intels, seed=3)
        worst = service.schedule(
            app.name, CbesScheduler(schedule=FAST_SA, direction="maximize"), intels, seed=3
        )

        def measure(mapping):
            return service.simulator.run(
                program, mapping.as_dict(), seed=55,
                arch_affinity=app.arch_affinity, collect_trace=False,
            ).total_time

        t_best, t_worst = measure(best.mapping), measure(worst.mapping)
        assert (t_worst - t_best) / t_worst > 0.03

    def test_ablation_lambda_matters(self, og_service):
        """Dropping the lambda correction shifts predictions."""
        service = og_service
        alphas = service.cluster.nodes_by_arch("alpha-533")
        mapping = TaskMapping(alphas)
        with_lambda = service.evaluator("lu.A").execution_time(mapping)
        without = service.evaluator(
            "lu.A", options=EvaluationOptions(use_lambda=False)
        ).execution_time(mapping)
        assert with_lambda != pytest.approx(without, rel=0.02)

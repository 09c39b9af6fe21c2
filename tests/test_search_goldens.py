"""Literal goldens: every seeded search result, pinned to the last digit.

``search_goldens.json`` was captured from the commit *before* the search
loop started speaking moves (``MoveGenerator.draw`` /
``IncrementalEvaluator.propose_move``), by running this file as a script
against that commit's sources::

    PYTHONPATH=<parent>/src python tests/test_search_goldens.py > tests/search_goldens.json

The scenario below uses only API both commits share, so the file is its
own capture tool.  A diff against the goldens means a seeded trajectory
moved: a changed RNG draw, a reordered free list, a float summed in a
different order.  Re-capture only for a deliberate, documented break.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro import telemetry
from repro.cluster import orange_grove
from repro.core import CBES, TaskMapping
from repro.monitoring.load import LoadEvent, LoadGenerator
from repro.remap import Remapper
from repro.schedulers import (
    AnnealingSchedule,
    CbesScheduler,
    GeneticParams,
    GeneticScheduler,
    GreedyScheduler,
    NoCommScheduler,
)
from repro.workloads import CG, LU

GOLDENS = Path(__file__).with_name("search_goldens.json")
NPROCS = 8
SEEDS = (1, 2, 3)
SCHEDULE = AnnealingSchedule(moves_per_temperature=25, steps=16, patience=6)
GA = GeneticParams(population=12, generations=10, patience=6)


def _schedulers():
    return {
        "cs": CbesScheduler(schedule=SCHEDULE),
        "ncs": NoCommScheduler(schedule=SCHEDULE),
        "ga": GeneticScheduler(params=GA),
        "ga-islands2": GeneticScheduler(params=GA, islands=2, migration_interval=3),
        "greedy": GreedyScheduler(),
    }


def _sa_moves(registry) -> dict[str, int]:
    family = registry.snapshot().get("cbes_sa_moves_total", {"samples": []})
    return {s["labels"]["outcome"]: int(s["value"]) for s in family["samples"]}


def golden_runs() -> dict[str, dict]:
    """Every scenario's result document, keyed ``app/search/seed``."""
    cluster = orange_grove()
    cluster.use_exact_latency_model()
    service = CBES(cluster)
    pool = cluster.node_ids()
    out: dict[str, dict] = {}
    for app in (LU("A"), CG("A")):
        service.profile_application(app, NPROCS, seed=1)
        for seed in SEEDS:
            for tag, scheduler in _schedulers().items():
                registry = telemetry.MetricsRegistry()
                with telemetry.use_registry(registry):
                    result = scheduler.schedule(service.evaluator(app.name), pool, seed=seed)
                out[f"{app.name}/{tag}/{seed}"] = {
                    "mapping": list(result.mapping.as_tuple()),
                    "predicted_time": result.predicted_time,
                    "evaluations": result.evaluations,
                    "history": list(result.history),
                    "sa_moves": _sa_moves(registry),
                }
            # Remap: the incumbent's nodes get loaded and restart 0 anneals
            # outward from the incumbent -- one rank per node, and two ranks
            # per node (a co-located warm start frees a node only when its
            # last rank leaves).
            for tag, current in (
                ("remap", TaskMapping(pool[:NPROCS])),
                ("remap-colocated", TaskMapping(pool[: NPROCS // 2] * 2)),
            ):
                events = [LoadEvent(n, cpu_load=1.5) for n in sorted(current.nodes_used())]
                registry = telemetry.MetricsRegistry()
                with LoadGenerator(cluster).loaded(events), telemetry.use_registry(registry):
                    plan = Remapper(restarts=2, seed_scan=4, schedule=SCHEDULE).propose(
                        service.evaluator(app.name), current, seed=seed
                    )
                out[f"{app.name}/{tag}/{seed}"] = {
                    "mapping": list(plan.candidate.as_tuple()),
                    "predicted_time": plan.candidate_remaining_s,
                    "evaluations": plan.evaluations,
                    "remap": plan.remap,
                    "migration_cost_s": plan.migration_cost_s,
                    "sa_moves": _sa_moves(registry),
                }
    return out


def test_seeded_search_results_match_the_parent_commit():
    want = json.loads(GOLDENS.read_text())
    got = json.loads(json.dumps(golden_runs()))  # same float/tuple normalisation
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    json.dump(golden_runs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

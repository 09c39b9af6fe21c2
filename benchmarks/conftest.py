"""Shared fixtures for the benchmark suite.

Each paper / ablation ``bench_*`` module is the only home of one table
or figure (see DESIGN.md's experiment index) and exposes it as an
``ARTEFACT`` record: ``run(ctx)``, ``render(result)``, ``check(result)``.
Its pytest-benchmark test is those three calls (:func:`_reproduce`), and
``tools/reproduce_all.py`` loops the same records, each over a fresh
:func:`make_context`.  Benchmarks run at a reduced scale by default so the
whole suite finishes in under a minute; set ``REPRO_FULL=1`` for the
paper's repetition counts (5 measurement runs, 100 scheduling runs, the
full phase-1 factor grid).

The printed artefact of every benchmark is the reproduced table/figure;
run with ``pytest benchmarks/ --benchmark-only -s`` to see them.
"""

from __future__ import annotations

import pytest

from repro.cluster import centurion, orange_grove
from repro.core import CBES, TaskMapping
from repro.experiments.harness import Artefact, ExperimentContext
from repro.schedulers.annealing import AnnealingSchedule
from repro.workloads import LU

#: SA budget used by scheduling benchmarks at reduced scale.
BENCH_SA = AnnealingSchedule(moves_per_temperature=40, steps=25, patience=8)


def make_context(cluster: str) -> ExperimentContext | None:
    """A fresh calibrated context for one record (``Artefact.cluster`` names the testbed).

    Fresh per record, not shared: profiles are keyed by application name,
    so a shared context would hand one record another's profile and make
    its numbers depend on what ran before it.
    """
    if cluster == "orange-grove":
        og = orange_grove()
        ctx = ExperimentContext(CBES(og))
        # Every LU artefact reads the profile taken on the Alpha group.
        ctx.ensure_profiled(LU("A"), 8, mapping=TaskMapping(og.nodes_by_arch("alpha-533")), seed=0)
        return ctx
    if cluster == "centurion":
        return ExperimentContext(CBES(centurion()))
    if cluster == "":
        return None  # the record builds its own testbeds
    raise ValueError(f"unknown testbed {cluster!r}")


def _reproduce(request, benchmark):
    artefact = request.module.ARTEFACT
    ctx = make_context(artefact.cluster)
    result = benchmark.pedantic(artefact.run, args=(ctx,), rounds=1, iterations=1)
    print("\n" + artefact.render(result))
    artefact.check(result)


def pytest_pycollect_makeitem(collector, name, obj):
    """A record module's ``ARTEFACT`` is its pytest-benchmark test."""
    if name == "ARTEFACT" and isinstance(obj, Artefact):
        return pytest.Function.from_parent(collector, name=f"test_{obj.name}", callobj=_reproduce)

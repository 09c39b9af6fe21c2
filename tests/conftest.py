"""Shared fixtures for the test suite.

Expensive artefacts (built clusters, calibrated services, profiles) are
session-scoped; tests must not mutate them.  Tests that need mutable
state build their own small clusters via the factory fixtures.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster import (
    ALPHA_533,
    INTEL_PII_400,
    Cluster,
    LinkSpec,
    NetworkFabric,
    Node,
    SwitchSpec,
    centurion,
    orange_grove,
    single_switch,
)
from repro.core import CBES, EvaluationOptions, TaskMapping
from repro.simulate import ClusterSimulator
from repro.workloads import LU, SyntheticBenchmark


#: Every combination of the four evaluation toggles, the full formula
#: first.  The one list the kernel, batch and move-protocol suites (and
#: ``benchmarks/bench_batch_eval.py``, which builds the same product)
#: run over: a toggle is a table substitution in ``EvaluationContext``,
#: so no combination may split a backend or a delta from a full pass.
OPTION_COMBOS = [
    EvaluationOptions(*toggles) for toggles in itertools.product((True, False), repeat=4)
]


def make_tiny_cluster(n: int = 4, *, two_switches: bool = False) -> Cluster:
    """A small mutable cluster for tests: n PII nodes, 1 or 2 switches."""
    fabric = NetworkFabric()
    fabric.add_switch(SwitchSpec("sw0", nports=16))
    switches = ["sw0"]
    if two_switches:
        fabric.add_switch(SwitchSpec("sw1", nports=16, forward_latency_s=12e-6))
        fabric.connect("sw0", "sw1", LinkSpec(bandwidth_bps=50e6, latency_s=5e-6))
        switches.append("sw1")
    nodes = []
    for i in range(n):
        node = Node(f"n{i:02d}", INTEL_PII_400 if i % 2 == 0 else ALPHA_533)
        fabric.add_host(node.node_id)
        fabric.connect(node.node_id, switches[i % len(switches)])
        nodes.append(node)
    return Cluster("tiny", nodes, fabric)


@pytest.fixture
def tiny_cluster() -> Cluster:
    return make_tiny_cluster()


@pytest.fixture
def tiny_cluster2() -> Cluster:
    return make_tiny_cluster(6, two_switches=True)


@pytest.fixture(scope="session")
def og_cluster() -> Cluster:
    cluster = orange_grove()
    cluster.calibrate(seed=1)
    return cluster


@pytest.fixture(scope="session")
def centurion_cluster() -> Cluster:
    cluster = centurion()
    cluster.use_exact_latency_model()
    return cluster


@pytest.fixture(scope="session")
def og_service(og_cluster) -> CBES:
    """A calibrated service on Orange Grove with LU-A profiled.

    Session-scoped and shared: do not mutate loads through it.
    """
    service = CBES(og_cluster)
    app = LU("A")
    service.profile_application(
        app, 8, mapping=TaskMapping(og_cluster.nodes_by_arch("alpha-533")), seed=0
    )
    return service


@pytest.fixture(scope="session")
def lu_app() -> LU:
    return LU("A")


@pytest.fixture
def small_service() -> CBES:
    """A fresh, mutable service on a single-switch 6-node cluster."""
    cluster = single_switch("mini", 6)
    service = CBES(cluster)
    service.calibrate(seed=2)
    return service


@pytest.fixture
def tiny_app() -> SyntheticBenchmark:
    return SyntheticBenchmark(comm_fraction=0.2, overlap=0.5, duration_s=2.0, steps=4)


@pytest.fixture
def simulator(tiny_cluster) -> ClusterSimulator:
    tiny_cluster.use_exact_latency_model()
    return ClusterSimulator(tiny_cluster)

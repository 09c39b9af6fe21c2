"""A daemon quote is the reference's bytes.

A ``predict`` / ``compare`` job is priced off the generation's cached
``EvaluationContext`` and written straight into its document; what it
stores must be, byte for byte, ``encode_json`` of the document the paper
loop ``MappingEvaluator.predict()`` gives, built here from the
prediction's own ``critical`` process (the reference rule, not
``serialize.prediction_doc``).  Both NPB shapes the benchmark quotes
(``cg.A``/8, ``lu.A``/32), every ``EvaluationOptions`` combination, a
snapshot with background and NIC load, co-located ranks, compare ties
and a wrong-length mapping.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro._util import encode_json
from repro.cluster import ALPHA_533, INTEL_PII_400
from repro.cluster.topology import fat_star
from repro.core import CBES, MappingPrediction, TaskMapping
from repro.core.errors import InvalidMappingError
from repro.server import DaemonThread, JobFailed
from repro.server.serialize import prediction_to_dict
from repro.workloads import CG, LU
from tests.conftest import OPTION_COMBOS

APPS = {"cg.A": (CG("A"), 8), "lu.A": (LU("A"), 32)}


def reference_doc(prediction: MappingPrediction) -> dict:
    critical = prediction.critical
    return {
        "mapping": list(prediction.mapping.as_tuple()),
        "execution_time": critical.total,
        "critical_rank": critical.rank,
        "critical_breakdown": {
            "node": critical.node_id,
            "computation": critical.computation,
            "communication": critical.communication,
        },
        "processes": [
            {
                "rank": p.rank,
                "node": p.node_id,
                "computation": p.computation,
                "communication": p.communication,
            }
            for p in prediction.processes
        ],
    }


@pytest.fixture(scope="module")
def loaded():
    """48 nodes, half Alpha and half PII; every PII node carries background
    and NIC load, every Alpha node is idle (where ties are made)."""
    service = CBES(fat_star("quotes", [(ALPHA_533, 24), (INTEL_PII_400, 24)]))
    service.calibrate(seed=3)
    for app, nprocs in APPS.values():
        service.profile_application(app, nprocs, seed=0)
    cluster = service.cluster
    for i, nid in enumerate(cluster.nodes_by_arch(INTEL_PII_400.name)):
        cluster.node(nid).set_background_load(0.25 * (1 + i % 4))
        cluster.node(nid).nic_load = 0.15 * (i % 5)
    with DaemonThread(service, workers=2, queue_limit=256) as srv:
        yield service, srv


def candidates(service: CBES, nprocs: int, rng: random.Random) -> list[list[str]]:
    """A spread mapping, a co-located one, and two relabelings of one
    idle-Alpha mapping with two ranks a node (they tie without communication)."""
    ids = service.cluster.node_ids()
    idle = service.cluster.nodes_by_arch(ALPHA_533.name)[: nprocs // 2]
    spread = rng.sample(ids, nprocs)
    stacked = [spread[0], *spread[:-1]]
    return [spread, stacked, idle * 2, idle[::-1] * 2]


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_quote_bytes_equal_the_reference(loaded, app_name):
    service, srv = loaded
    nprocs = APPS[app_name][1]
    fingerprint = srv.daemon.runner.serving.fingerprint
    rng = random.Random(app_name)
    jobs, expected = [], []
    ties = 0
    for options in OPTION_COMBOS:
        evaluator = service.evaluator(app_name, options=options)
        mappings = candidates(service, nprocs, rng)
        references = [evaluator.predict(TaskMapping(nodes)) for nodes in mappings]
        for nodes, reference in zip(mappings[:2], references, strict=False):
            jobs.append({"kind": "predict", "app": app_name, "nodes": nodes,
                         "options": asdict(options)})
            expected.append({**reference_doc(reference), "snapshot_fingerprint": fingerprint})
        ranked = sorted(references, key=lambda p: p.execution_time)
        jobs.append({"kind": "compare", "app": app_name, "mappings": mappings,
                     "options": asdict(options)})
        expected.append({"ranked": [reference_doc(p) for p in ranked],
                         "snapshot_fingerprint": fingerprint})
        if references[2].execution_time == references[3].execution_time:
            ties += 1  # request order: the idle mapping before its relabeling
            assert ranked.index(references[2]) < ranked.index(references[3])
    assert ties >= 8  # every combination with communication off, at least
    client = srv.client()
    done = client.wait_many([job["id"] for job in client.submit_batch(jobs)], timeout_s=60.0)
    assert [job["state"] for job in done] == ["done"] * len(jobs)
    store = srv.daemon.store
    for job, want in zip(done, expected, strict=True):
        assert store.get(job["id"]).result_json == encode_json(want)


def test_prediction_to_dict_is_the_reference_document(loaded):
    service, _ = loaded
    rng = random.Random(5)
    for app_name, (_, nprocs) in APPS.items():
        for options in OPTION_COMBOS:
            evaluator = service.evaluator(app_name, options=options)
            for nodes in candidates(service, nprocs, rng):
                prediction = evaluator.predict(TaskMapping(nodes))
                assert encode_json(prediction_to_dict(prediction)) == encode_json(
                    reference_doc(prediction)
                )


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_a_wrong_length_mapping_fails_with_the_reference_error(loaded, app_name):
    service, srv = loaded
    nprocs = APPS[app_name][1]
    ids = service.cluster.node_ids()
    evaluator = service.evaluator(app_name)
    client = srv.client()
    for kind, payload, bad in (
        ("predict", {"nodes": ids[: nprocs - 1]}, ids[: nprocs - 1]),
        ("compare", {"mappings": [ids[:nprocs], ids[: nprocs + 1]]}, ids[: nprocs + 1]),
    ):
        with pytest.raises(InvalidMappingError) as want:
            evaluator.predict(TaskMapping(bad))
        job = client.submit(kind, app=app_name, **payload)
        with pytest.raises(JobFailed):
            client.wait(job["id"], timeout_s=30)
        assert srv.daemon.store.get(job["id"]).error == f"InvalidMappingError: {want.value}"

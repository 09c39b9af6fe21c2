"""The four workloads: their reasons, their sizes, and their seeded requests.

``--seed`` drives one ``random.Random`` per workload that produces the
whole request list up front; the stack only ever sees the generated
JSON.  The data here is what ``run.py`` prints and what
``BENCHMARK.json`` repeats for the workloads it lists (``selftest.py``
holds the two together).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

QUOTE_APP, QUOTE_RANKS = "cg.A", 8
#: Fastest sustained request rate to provision request lists for (1/s).
MAX_RATE = 1500
#: ``predict`` requests on fixed mappings, answered at the end of every
#: warm-up: the same on every seed and commit unless the kernel's
#: arithmetic changes, which the same-code oracle cannot see.
CANARY_REQUESTS = 16
#: The schedule jobs of ``schedule_stream``: fixed, so a run is whole
#: passes over the same work whatever the seed (the seed shuffles their
#: order).  Request times are bimodal — cg.A/8 ranks near 0.2 s, lu.A/32
#: ranks near 0.45 s — which is why latency is their mean over whole passes.
SCHEDULE_PAIRS = (
    ("lu.A", 1), ("cg.A", 1), ("lu.A", 2), ("cg.A", 2),
    ("lu.A", 3), ("cg.A", 3), ("lu.A", 4), ("cg.A", 4),
)
SWEEP_PREDICTS, SWEEP_COMPARES, SWEEP_CANDIDATES = 24, 8, 8
CRASH_BATCH = 128
#: Crash cycles per measured second of one repetition.
CRASH_CYCLES_PER_S = 5 / 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Journal fsync policy of the replica.
    fsync: str
    #: Whether the client talks to a ``repro fleet`` router or the replica itself.
    router: bool
    #: Requests sent before timing starts (counted into ``setup_s``).
    warmup: int
    #: Seconds between polls of one job.  The client's default of 50 ms
    #: makes a 3 ms quote bimodal (3 or 53 ms), so quotes poll at 2 ms; a
    #: 0.27 s schedule job polled that often loses 7 % of its time to the
    #: polls it shares the daemon's GIL with, so those poll at 10 ms.
    poll_s: float
    #: What one ``latency_ms`` sample is.
    latency_of: str
    #: What ``throughput_per_s`` counts, and how many of them one
    #: operation of the streaming phase is.
    throughput_of: str
    jobs_each: int = 1
    #: ``latency_ms`` is the mean over the samples, not their median.
    mean_latency: bool = False
    #: Whether ``BENCHMARK.json`` lists it, so that the driver runs it and
    #: holds later changes to its numbers.
    listed: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quote_stream",
            "one predict quote at a time, client to router to replica to journal: the kernel "
            "is under a tenth of the request, so server, fleet and persist do the work",
            fsync="interval", router=True, warmup=64, poll_s=0.002,
            latency_of="one predict job, submit to done", throughput_of="predict jobs",
        ),
        Workload(
            "schedule_stream",
            "CS schedule jobs over a fixed set of 8 (app, seed) pairs: SA search is over nine "
            "tenths of the request, so core and schedulers do the work and HTTP is noise",
            fsync="interval", router=True, warmup=2, poll_s=0.010,
            latency_of="one schedule job, submit to done; the mean over whole passes of the 8 pairs",
            throughput_of="schedule jobs", mean_latency=True,
        ),
        Workload(
            "sweep_batch",
            "rounds of one 32-job batch (24 predict, 8 compare) then wait_many: batched "
            "journal writes, a 2-worker queue that fills, and listings that grow with the store",
            fsync="interval", router=True, warmup=2, poll_s=0.002,
            # Rounds grow with the store, so their median is whichever round
            # falls mid-run and moves with how many a run gets through.
            latency_of="one round, submit_batch to all 32 done; the mean round",
            throughput_of="batched jobs", jobs_each=SWEEP_PREDICTS + SWEEP_COMPARES,
            mean_latency=True,
        ),
        Workload(
            "crash_recover",
            "one replica, fsync always, no router: SIGKILL after an acknowledged 128-job "
            "batch, respawn, every job must finish once; then durable quotes on that store",
            fsync="always", router=False, warmup=64, poll_s=0.002,
            latency_of="one recovery, respawn to all 128 acknowledged jobs done",
            throughput_of="fsynced predict jobs",
            # A recovery is a process start-up; ten runs of the same code
            # spread 25-30 % on a busy host, past any bound the contract allows.
            listed=False,
        ),
    )
}


def _mapping(rng: random.Random, nodes: list[str], ranks: int) -> list[str]:
    return rng.sample(nodes, ranks)


def predict_request(rng: random.Random, nodes: list[str]) -> dict:
    return {"kind": "predict", "app": QUOTE_APP, "nodes": _mapping(rng, nodes, QUOTE_RANKS)}


def canary_requests(nodes: list[str]) -> list[dict]:
    """The fixed predict requests; seeded by a constant, never by ``--seed``."""
    rng = random.Random(20050927)
    return [predict_request(rng, nodes) for _ in range(CANARY_REQUESTS)]


def sweep_round(rng: random.Random, nodes: list[str]) -> list[dict]:
    jobs = [predict_request(rng, nodes) for _ in range(SWEEP_PREDICTS)]
    for _ in range(SWEEP_COMPARES):
        mappings = [_mapping(rng, nodes, QUOTE_RANKS) for _ in range(SWEEP_CANDIDATES)]
        jobs.append({"kind": "compare", "app": QUOTE_APP, "mappings": mappings})
    return jobs


def generate(name: str, seed: int, seconds: float, nodes: list[str]) -> dict:
    """Every request of one run of workload *name*, made from *seed* alone.

    Returns ``{"warmup": [...], "stream": [...]}``; ``stream`` holds
    requests (``quote_stream``, ``schedule_stream``), rounds of 32 jobs
    (``sweep_batch``) or both crash batches and quotes
    (``crash_recover``, under ``batches``).  Streams are sized for
    :data:`MAX_RATE`; a run that outlasts one starts it over.
    """
    rng = random.Random(f"{name}:{seed}")
    quotes = max(1, int(seconds * MAX_RATE))
    warmup = WORKLOADS[name].warmup
    if name == "quote_stream":
        return {
            "warmup": [predict_request(rng, nodes) for _ in range(warmup)],
            "stream": [predict_request(rng, nodes) for _ in range(quotes)],
        }
    if name == "schedule_stream":
        order = list(SCHEDULE_PAIRS)
        rng.shuffle(order)
        jobs = [{"kind": "schedule", "app": app, "scheduler": "cs", "seed": s} for app, s in order]
        # One job per application: both evaluation contexts are built
        # before timing starts.
        first = {job["app"]: job for job in jobs}
        return {"warmup": list(first.values())[:warmup], "stream": jobs}
    if name == "sweep_batch":
        rounds = max(1, int(seconds * MAX_RATE / 32 / 4))
        return {
            "warmup": [sweep_round(rng, nodes) for _ in range(warmup)],
            "stream": [sweep_round(rng, nodes) for _ in range(rounds)],
        }
    if name == "crash_recover":
        return {
            "warmup": [predict_request(rng, nodes) for _ in range(warmup)],
            "batches": [
                [predict_request(rng, nodes) for _ in range(CRASH_BATCH)]
                for _ in range(max(1, round(seconds * CRASH_CYCLES_PER_S)))
            ],
            "stream": [predict_request(rng, nodes) for _ in range(quotes)],
        }
    raise KeyError(name)

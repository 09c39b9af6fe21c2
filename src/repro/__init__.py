"""repro — a reproduction of CBES, the Cost/Benefit Estimating Service.

CBES (Katramatos & Chapin, IEEE Cluster 2005) is a runtime scheduling
service that maps the processes of a parallel application onto the nodes
of a heterogeneous cluster by *predicting* each candidate mapping's
execution time from an application profile, a calibrated network latency
model, and live resource monitoring — then letting a simulated-annealing
scheduler minimize that prediction.

Package tour:

* :mod:`repro.cluster` — heterogeneous cluster model: nodes, switched
  fabric, latency calibration (including the paper's Centurion and
  Orange Grove testbeds);
* :mod:`repro.profiling` — execution traces, application profiles
  (X/O/B times, message groups, lambda), trace analysis;
* :mod:`repro.monitoring` — CPU/NIC sensors, NWS-style forecasting,
  availability snapshots, background-load injection;
* :mod:`repro.simulate` — the discrete-event execution engine standing
  in for the real clusters;
* :mod:`repro.core` — mappings, the eq. 4–8 mapping evaluator, the CBES
  service facade;
* :mod:`repro.remap` — online remapping of a running application (above
  ``repro.core`` and the schedulers, which it searches with);
* :mod:`repro.schedulers` — CS / NCS / RS of the paper, plus greedy and
  genetic-algorithm baselines;
* :mod:`repro.workloads` — analytic models of NPB 2.4, HPL, and the
  ASCI Purple selection, plus the phase-1 synthetic benchmark;
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the evaluation.

Quickstart::

    from repro import CBES, TaskMapping, orange_grove
    from repro.schedulers import CbesScheduler
    from repro.workloads import LU

    cluster = orange_grove()
    service = CBES(cluster)
    service.calibrate()
    app = LU("A")
    service.profile_application(app, nprocs=8)
    result = service.schedule(app.name, CbesScheduler(),
                              cluster.nodes_by_arch("alpha-533"))
    print(result.mapping, result.predicted_time)
"""

from typing import Any

from repro._util import LazyExports

__version__ = "1.0.0"

__all__ = [
    "CBES",
    "ApplicationProfile",
    "Cluster",
    "ClusterSimulator",
    "EvaluationOptions",
    "MappingEvaluator",
    "MappingPrediction",
    "SimulationConfig",
    "SystemMonitor",
    "SystemSnapshot",
    "TaskMapping",
    "__version__",
    "centurion",
    "orange_grove",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "cluster": ("Cluster", "centurion", "orange_grove"),
        "core": (
            "CBES",
            "EvaluationOptions",
            "MappingEvaluator",
            "MappingPrediction",
            "TaskMapping",
        ),
        "monitoring": ("SystemMonitor", "SystemSnapshot"),
        "profiling": ("ApplicationProfile",),
        "simulate": ("ClusterSimulator", "SimulationConfig"),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

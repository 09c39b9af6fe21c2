"""The CBES scheduling daemon: network service around the CBES facade.

The paper presents CBES as a *service* that "serves mapping comparison
requests from external clients such as the schedulers" (figure 2); this
package is that deployment shape — a long-running, stdlib-only asyncio
daemon owning a calibrated :class:`~repro.core.service.CBES` instance:

* :mod:`repro.server.http` — the one HTTP service core (keep-alive
  connection loop, route table, request ids, access log, metrics,
  SIGTERM/SIGINT drain) shared with the fleet router;
* :mod:`repro.server.daemon` — the daemon's routes over that core: the
  bounded job queue contract, ``/v1/healthz``;
* :mod:`repro.server.execution` — the thread worker pool, cached
  evaluation contexts and periodic snapshot refresh;
* :mod:`repro.server.watches` — the ``/v1/remap/*`` background loops;
* :mod:`repro.server.jobs` — the job lifecycle state machine and the
  TTL-evicting job store;
* :mod:`repro.server.protocol` — minimal HTTP/1.1 framing;
* :mod:`repro.server.serialize` — JSON codecs + submit-time validation;
* :mod:`repro.server.client` — the blocking client used by the CLI,
  tests and benchmarks.

See ``docs/SERVICE.md`` for the API reference and
``examples/service_daemon.py`` for an end-to-end walkthrough.
"""

from repro.server.client import BackpressureError, CbesClient, JobFailed, ServerError
from repro.server.daemon import CbesDaemon, DaemonThread
from repro.server.jobs import Job, JobState, JobStateError, JobStore
from repro.server.protocol import ApiError

__all__ = [
    "ApiError",
    "BackpressureError",
    "CbesClient",
    "CbesDaemon",
    "DaemonThread",
    "Job",
    "JobFailed",
    "JobState",
    "JobStateError",
    "JobStore",
    "ServerError",
]

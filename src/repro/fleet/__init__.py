"""repro.fleet — shared-nothing scale-out for the CBES service.

One :class:`FleetRouter` fronts N independent
:class:`~repro.server.daemon.CbesDaemon` replicas.  Placement is
rendezvous hashing over the job id (:mod:`repro.fleet.hashing`), so the
router holds no routing table; :class:`FleetSupervisor` boots the
replicas as subprocesses for ``repro fleet --replicas N``.  See
``docs/FLEET.md`` for the architecture and failure semantics.
"""

from typing import Any

from repro._util import LazyExports

__all__ = [
    "FleetRouter",
    "FleetSupervisor",
    "RouterThread",
    "pick_backend",
    "rendezvous_rank",
    "score",
]

_EXPORTS = LazyExports(
    __name__,
    {
        "hashing": ("pick_backend", "rendezvous_rank", "score"),
        "router": ("FleetRouter", "RouterThread"),
        "supervisor": ("FleetSupervisor",),
    },
)


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.names()

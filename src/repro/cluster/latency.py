"""End-to-end internode latency model.

This is the centrepiece of the CBES system infrastructure: a model
``L(src, dst, size)`` of the no-load end-to-end latency of a standard
blocking message, plus the on-demand adjustment for current CPU and NIC
load described in the paper (section 2 and [12]):

* the *endpoint* components of latency (host-side MPI/driver processing)
  stretch with ``1 / ACPU`` of the respective endpoint, because the
  sending and receiving code timeshares the CPU with the existing load;
* the *serialization* component stretches with ``1 / (1 - nic_load)``,
  because background traffic consumes NIC/link bandwidth;
* the in-network component (switch forwarding, propagation) is load
  independent at this level of modelling.

A model is normally produced by :mod:`repro.cluster.calibration`, which
fits the components from simulated benchmark measurements; for tests and
analytic studies :meth:`LatencyModel.from_fabric` builds the exact model
directly from the wiring.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro._util import check_fraction, check_positive
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node

__all__ = ["PathComponents", "LatencyModel", "LOCAL_ALPHA_S", "LOCAL_BETA_S_PER_BYTE"]

#: Latency components for two processes on the *same* node (shared memory).
LOCAL_ALPHA_S = 1.5e-6
LOCAL_BETA_S_PER_BYTE = 1.0 / 400e6  # ~400 MB/s memcpy


@dataclass(frozen=True)
class PathComponents:
    """Decomposed no-load latency of one ordered host pair.

    ``L0(size) = alpha_src + alpha_dst + alpha_net + size * beta``
    with *size* in bytes and all components in seconds.
    """

    alpha_src: float
    alpha_dst: float
    alpha_net: float
    beta: float  # seconds per byte (serialization on the bottleneck link)

    def __post_init__(self) -> None:
        for name in ("alpha_src", "alpha_dst", "alpha_net", "beta"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")

    def no_load(self, size_bytes: float) -> float:
        """No-load end-to-end latency for a message of *size_bytes*."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        return self.alpha_src + self.alpha_dst + self.alpha_net + size_bytes * self.beta

    def adjusted(
        self,
        size_bytes: float,
        *,
        acpu_src: float = 1.0,
        acpu_dst: float = 1.0,
        nic_src: float = 0.0,
        nic_dst: float = 0.0,
    ) -> float:
        """Load-adjusted latency ``L_c`` (paper section 2).

        ``acpu_*`` are CPU availabilities in ``(0, 1]``; ``nic_*`` are
        NIC utilisations in ``[0, 1)`` (clamped to 0.95 to keep the
        model finite under saturation).
        """
        check_fraction(acpu_src, "acpu_src", closed_low=False)
        check_fraction(acpu_dst, "acpu_dst", closed_low=False)
        check_fraction(nic_src, "nic_src")
        check_fraction(nic_dst, "nic_dst")
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        nic = min(max(nic_src, nic_dst), 0.95)
        return (
            self.alpha_src / acpu_src
            + self.alpha_dst / acpu_dst
            + self.alpha_net
            + size_bytes * self.beta / (1.0 - nic)
        )


class LatencyModel:
    """Pairwise latency model over a set of hosts.

    The model is symmetric in its *network* components but keeps ordered
    pairs because endpoint overheads may differ (heterogeneous NICs).
    Same-node communication uses the shared-memory constants.
    """

    def __init__(self, components: Mapping[tuple[str, str], PathComponents]):
        if not components:
            raise ValueError("latency model requires at least one host pair")
        self._components = dict(components)
        hosts: set[str] = set()
        for src, dst in self._components:
            hosts.add(src)
            hosts.add(dst)
        self._hosts = frozenset(hosts)

    # -- pickling ------------------------------------------------------
    def __getstate__(self) -> dict:
        """Canonical (sorted) state so pickle bytes are content-stable.

        ``_hosts`` is a frozenset and ``_components`` a dict; both
        iterate in insertion/hash order, which survives neither a pickle
        round-trip nor hash randomization.  ``SearchSpec.fingerprint``
        hashes this object's pickle bytes to key worker-side caches, so
        the serialized form must depend only on *content*.
        """
        return {
            "_components": dict(sorted(self._components.items())),
            "_hosts": sorted(self._hosts),
        }

    def __setstate__(self, state: dict) -> None:
        self._components = state["_components"]
        self._hosts = frozenset(state["_hosts"])

    # -- construction --------------------------------------------------
    @classmethod
    def from_fabric(cls, fabric: NetworkFabric, nodes: Mapping[str, Node]) -> "LatencyModel":
        """Build the exact analytic model from the wiring.

        This is what an ideal (noise-free) calibration would converge
        to; :mod:`repro.cluster.calibration` produces a fitted
        approximation of the same thing.
        """
        fabric.validate()
        comps: dict[tuple[str, str], PathComponents] = {}
        host_list = sorted(fabric.hosts)
        for src in host_list:
            for dst in host_list:
                if src == dst:
                    continue
                comps[(src, dst)] = cls.analytic_components(fabric, nodes, src, dst)
        return cls(comps)

    @staticmethod
    def analytic_components(
        fabric: NetworkFabric, nodes: Mapping[str, Node], src: str, dst: str
    ) -> PathComponents:
        """Exact latency decomposition of one host pair from the wiring."""
        switches = fabric.path_switches(src, dst)
        links = fabric.path_links(src, dst)
        alpha_net = sum(s.forward_latency_s for s in switches)
        alpha_net += sum(link.latency_s for _, _, link in links)
        bw = min(link.bandwidth_bps for _, _, link in links)
        return PathComponents(
            alpha_src=nodes[src].nic.send_overhead_s,
            alpha_dst=nodes[dst].nic.send_overhead_s,
            alpha_net=alpha_net,
            beta=8.0 / bw,
        )

    # -- queries --------------------------------------------------------
    @property
    def hosts(self) -> frozenset[str]:
        return self._hosts

    def components(self, src: str, dst: str) -> PathComponents:
        """Latency components of the ordered pair ``(src, dst)``."""
        if src == dst:
            return PathComponents(LOCAL_ALPHA_S, LOCAL_ALPHA_S, 0.0, LOCAL_BETA_S_PER_BYTE)
        try:
            return self._components[(src, dst)]
        except KeyError:
            raise KeyError(f"no latency data for pair ({src!r}, {dst!r})") from None

    def no_load(self, src: str, dst: str, size_bytes: float) -> float:
        """No-load latency of one message."""
        return self.components(src, dst).no_load(size_bytes)

    def current(
        self,
        src: str,
        dst: str,
        size_bytes: float,
        *,
        acpu_src: float = 1.0,
        acpu_dst: float = 1.0,
        nic_src: float = 0.0,
        nic_dst: float = 0.0,
    ) -> float:
        """Load-adjusted latency ``L_c`` of one message."""
        return self.components(src, dst).adjusted(
            size_bytes, acpu_src=acpu_src, acpu_dst=acpu_dst, nic_src=nic_src, nic_dst=nic_dst
        )

    def component_tables(
        self, hosts: Sequence[str]
    ) -> tuple[list[float], list[float], list[float], list[float]]:
        """Bulk component lookup as flat row-major tables.

        Each list has ``len(hosts)**2`` entries; entry ``[i * m + j]``
        decomposes the ordered pair ``(hosts[i], hosts[j])``.  Diagonal
        entries carry the shared-memory constants; pairs absent from the
        model are NaN (callers must check before use).  This is the bulk
        form of the per-pair :meth:`components` query, built once per
        evaluation context so ``theta`` sums reduce to table gathers —
        and it is pure python, so the evaluation fast path works without
        numpy installed.
        """
        m = len(hosts)
        nan = math.nan
        a_src = [nan] * (m * m)
        a_dst = [nan] * (m * m)
        a_net = [nan] * (m * m)
        beta = [nan] * (m * m)
        local = PathComponents(LOCAL_ALPHA_S, LOCAL_ALPHA_S, 0.0, LOCAL_BETA_S_PER_BYTE)
        for i, src in enumerate(hosts):
            base = i * m
            for j, dst in enumerate(hosts):
                pc = local if i == j else self._components.get((src, dst))
                if pc is None:
                    continue
                a_src[base + j] = pc.alpha_src
                a_dst[base + j] = pc.alpha_dst
                a_net[base + j] = pc.alpha_net
                beta[base + j] = pc.beta
        return a_src, a_dst, a_net, beta

    def spread(self, size_bytes: float = 1024.0) -> tuple[float, float, float]:
        """Latency heterogeneity statistics at a given message size.

        Returns ``(min, max, relative_spread)`` over all distinct host
        pairs, with ``relative_spread = (max - min) / max``.  The paper
        reports ~13 % for Centurion and up to 54 % for Orange Grove.
        """
        check_positive(size_bytes, "size_bytes")
        values = [pc.no_load(size_bytes) for pc in self._components.values()]
        low, high = min(values), max(values)
        return low, high, (high - low) / high

    def pairs(self) -> list[tuple[str, str]]:
        """All ordered host pairs in the model (sorted, deterministic)."""
        return sorted(self._components)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (the system-profile database row)."""
        return {
            "pairs": [
                [src, dst, pc.alpha_src, pc.alpha_dst, pc.alpha_net, pc.beta]
                for (src, dst), pc in sorted(self._components.items())
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatencyModel":
        comps = {
            (str(src), str(dst)): PathComponents(
                float(a_src), float(a_dst), float(a_net), float(beta)
            )
            for src, dst, a_src, a_dst, a_net, beta in data["pairs"]
        }
        return cls(comps)

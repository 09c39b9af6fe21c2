"""Topology builders for the paper's testbeds and generic shapes.

The two concrete builders reconstruct the experimental configurations of
the paper (section 4) as faithfully as the text allows:

* :func:`centurion` — the 128-node UVa configuration: 32 Alpha 533 MHz +
  96 dual-PII 400 MHz nodes spread over eight identical 3Com 24-port
  100 Mb switches, all uplinked to one 3Com 1.2 Gb core switch
  (figure 3).  The resulting internode latency spread is ~13 %.
* :func:`orange_grove` — the 28-node Syracuse configuration: 8 Alpha +
  8 SPARC + 12 dual-PII nodes over five 3Com 24-port switches (two of
  them stacked as one 48-port unit) and two slow DLink 8-port switches,
  wired to emulate a federation of two elementary clusters joined by a
  limited-capacity link (figure 4).  Latency spread reaches ~54 %.

The exact port-by-port wiring of Orange Grove is not given in the paper;
the builder documents the concrete choice made here, which preserves the
three properties the experiments depend on: per-architecture node
groups, per-switch locality differences, and a federation bottleneck.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.network import LinkSpec, NetworkFabric, SwitchSpec
from repro.cluster.node import ALPHA_533, INTEL_PII_400, SPARC_500, Architecture, NICSpec, Node

__all__ = ["single_switch", "fat_star", "federated", "centurion", "orange_grove"]

#: Standard host link: switched fast ethernet.
FAST_ETHERNET = LinkSpec(bandwidth_bps=100e6, latency_s=0.5e-6)
#: 3Com 24-port forwarding profile.
_3COM_FWD = 6e-6
#: DLink 8-port forwarding profile (cheap edge switch, slower fabric).
_DLINK_FWD = 16e-6


def _make_nodes(
    prefix: str, count: int, arch: Architecture, *, ncpus: int = 1, start: int = 0
) -> list[Node]:
    return [
        Node(node_id=f"{prefix}{i:02d}", arch=arch, ncpus=ncpus, nic=NICSpec())
        for i in range(start, start + count)
    ]


def single_switch(
    name: str, count: int, arch: Architecture = INTEL_PII_400, *, ncpus: int = 1
) -> Cluster:
    """A trivial cluster: *count* identical nodes on one switch."""
    if count < 1:
        raise ValueError("count must be >= 1")
    fabric = NetworkFabric()
    fabric.add_switch(SwitchSpec(f"{name}-sw", nports=count + 1, forward_latency_s=_3COM_FWD))
    nodes = _make_nodes(f"{name}-n", count, arch, ncpus=ncpus)
    for node in nodes:
        fabric.add_host(node.node_id)
        fabric.connect(node.node_id, f"{name}-sw", FAST_ETHERNET)
    return Cluster(name, nodes, fabric)


def fat_star(
    name: str,
    groups: Sequence[tuple[Architecture, int]],
    *,
    hosts_per_switch: int = 16,
    core_bps: float = 1.2e9,
) -> Cluster:
    """Edge switches of mixed-architecture hosts around one core switch."""
    nodes: list[Node] = []
    counters: dict[str, int] = {}
    for arch, count in groups:
        start = counters.get(arch.name, 0)
        nodes.extend(_make_nodes(f"{name}-{arch.name}-", count, arch, start=start))
        counters[arch.name] = start + count
    if not nodes:
        raise ValueError("groups must produce at least one node")
    fabric = NetworkFabric()
    core = f"{name}-core"
    fabric.add_switch(SwitchSpec(core, nports=64, forward_latency_s=3e-6, backplane_bps=core_bps))
    nswitches = -(-len(nodes) // hosts_per_switch)
    for k in range(nswitches):
        sw = f"{name}-sw{k:02d}"
        fabric.add_switch(SwitchSpec(sw, nports=hosts_per_switch + 2, forward_latency_s=_3COM_FWD))
        fabric.connect(sw, core, LinkSpec(bandwidth_bps=core_bps, latency_s=0.5e-6))
    for idx, node in enumerate(nodes):
        sw = f"{name}-sw{idx // hosts_per_switch:02d}"
        fabric.add_host(node.node_id)
        fabric.connect(node.node_id, sw, FAST_ETHERNET)
    return Cluster(name, nodes, fabric)


def federated(
    name: str,
    sides: Sequence[Cluster],
    *,
    bottleneck: LinkSpec = LinkSpec(bandwidth_bps=50e6, latency_s=10e-6),
) -> Cluster:
    """Join independently built clusters through a limited-capacity link.

    Each side cluster must have a switch named ``<side>-core`` or a
    unique top switch; sides are joined pairwise in a chain through
    *bottleneck* links.  Node and switch ids must not collide.
    """
    if len(sides) < 2:
        raise ValueError("a federation needs at least two sides")
    fabric = NetworkFabric()
    nodes: list[Node] = []
    tops: list[str] = []
    for side in sides:
        side_fabric = side.fabric
        switches = side_fabric.switches
        # The side's "top" is its highest-degree switch.
        top = max(switches, key=lambda s: (side_fabric.ports_used(s), s))
        tops.append(top)
        for spec in switches.values():
            fabric.add_switch(spec)
        for node in side.nodes.values():
            fabric.add_host(node.node_id)
            nodes.append(node)
        for a, b, link in side_fabric.links():
            fabric.connect(a, b, link)
    for a, b in zip(tops, tops[1:], strict=False):
        fabric.connect(a, b, bottleneck)
    return Cluster(name, nodes, fabric)


def centurion(*, prefix: str = "cent") -> Cluster:
    """The 128-node Centurion experimental configuration (figure 3).

    Eight 3Com 24-port 100 Mb edge switches, each carrying 4 Alpha and
    12 dual-PII nodes, uplinked to a 1.2 Gb core switch.
    """
    fabric = NetworkFabric()
    core = f"{prefix}-core"
    fabric.add_switch(SwitchSpec(core, nports=16, forward_latency_s=3e-6, backplane_bps=12e9))
    nodes: list[Node] = []
    for k in range(8):
        sw = f"{prefix}-sw{k:02d}"
        fabric.add_switch(SwitchSpec(sw, nports=24, forward_latency_s=_3COM_FWD))
        fabric.connect(sw, core, LinkSpec(bandwidth_bps=1.2e9, latency_s=0.5e-6))
        alphas = _make_nodes(f"{prefix}-a", 4, ALPHA_533, start=4 * k)
        intels = _make_nodes(f"{prefix}-i", 12, INTEL_PII_400, ncpus=2, start=12 * k)
        for node in alphas + intels:
            fabric.add_host(node.node_id)
            fabric.connect(node.node_id, sw, FAST_ETHERNET)
            nodes.append(node)
    return Cluster("centurion", nodes, fabric)


def orange_grove(*, prefix: str = "og") -> Cluster:
    """The 28-node rewired Orange Grove configuration (figure 4).

    Wiring chosen here (see module docstring):

    * **side 1** — the stacked pair of 3Com switches acts as one 48-port
      unit (``og-stack``) carrying 4 Alpha and 2 dual-PII nodes; a 3Com
      24-port (``og-sw02``) with 2 Alpha + 4 dual-PII nodes and a DLink
      8-port (``og-dl10``) with 4 SPARC nodes uplink into the stack;
    * **side 2** — a 3Com 24-port (``og-sw11``) carries 2 Alpha + 6
      dual-PII nodes directly plus a DLink 8-port (``og-dl12``) with the
      other 4 SPARC nodes;
    * the sides are joined by a single limited-capacity link
      (50 Mb effective, 10 µs) between ``og-stack`` and ``og-sw11``,
      emulating the federation of two elementary clusters.

    Every architecture group spans several switches *and* both
    federation sides — that is what makes rank placement matter even
    within one architecture group, the effect behind the paper's
    within-zone speedups (table 1).
    """
    fabric = NetworkFabric()
    stack = f"{prefix}-stack"
    sw02 = f"{prefix}-sw02"
    sw11 = f"{prefix}-sw11"
    dl10 = f"{prefix}-dl10"
    dl12 = f"{prefix}-dl12"
    fabric.add_switch(SwitchSpec(stack, nports=48, forward_latency_s=_3COM_FWD))
    fabric.add_switch(SwitchSpec(sw02, nports=24, forward_latency_s=_3COM_FWD))
    fabric.add_switch(SwitchSpec(sw11, nports=24, forward_latency_s=_3COM_FWD))
    fabric.add_switch(SwitchSpec(dl10, nports=8, forward_latency_s=_DLINK_FWD, backplane_bps=0.8e9))
    fabric.add_switch(SwitchSpec(dl12, nports=8, forward_latency_s=_DLINK_FWD, backplane_bps=0.8e9))

    alphas = _make_nodes(f"{prefix}-a", 8, ALPHA_533)
    intels = _make_nodes(f"{prefix}-i", 12, INTEL_PII_400, ncpus=2)
    sparcs = _make_nodes(f"{prefix}-s", 8, SPARC_500)

    wiring: list[tuple[Node, str]] = []
    wiring += [(n, stack) for n in alphas[:4]]  # 4 Alpha on the stack
    wiring += [(n, stack) for n in intels[:2]]  # 2 PII on the stack
    wiring += [(n, sw02) for n in alphas[4:6]]  # 2 Alpha on sw02 (side 1)
    wiring += [(n, sw02) for n in intels[2:6]]  # 4 PII on sw02 (side 1)
    wiring += [(n, dl10) for n in sparcs[:4]]  # 4 SPARC on dl10 (side 1)
    wiring += [(n, sw11) for n in alphas[6:]]  # 2 Alpha on sw11 (side 2)
    wiring += [(n, sw11) for n in intels[6:]]  # 6 PII on sw11 (side 2)
    wiring += [(n, dl12) for n in sparcs[4:]]  # 4 SPARC on dl12 (side 2)
    for node, sw in wiring:
        fabric.add_host(node.node_id)
        fabric.connect(node.node_id, sw, FAST_ETHERNET)

    fabric.connect(sw02, stack, FAST_ETHERNET)
    fabric.connect(dl10, stack, FAST_ETHERNET)
    fabric.connect(dl12, sw11, FAST_ETHERNET)
    # The limited-capacity federation link.
    fabric.connect(stack, sw11, LinkSpec(bandwidth_bps=50e6, latency_s=10e-6))
    return Cluster("orange-grove", alphas + intels + sparcs, fabric)

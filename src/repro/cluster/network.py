"""Switched-network fabric model.

The fabric is an undirected graph whose vertices are host NICs and
switches and whose edges are physical links with a bandwidth and a
propagation/forwarding latency.  The CBES latency model
(:mod:`repro.cluster.latency`) is *derived from* this fabric during the
calibration phase, exactly as the paper derives its end-to-end latency
model from off-line benchmark runs on the real wiring.

Forwarding follows the fewest hops.  Among equally short paths the one a
breadth-first search from the source reaches first wins, visiting each
element's links in the order they were connected.  Every shipped
topology is a tree, so its paths are unique anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import check_positive

__all__ = ["SwitchSpec", "LinkSpec", "NetworkFabric"]


@dataclass(frozen=True)
class SwitchSpec:
    """A store-and-forward switch.

    ``forward_latency_s`` is the per-frame forwarding delay added for
    every traversal of the switch; cheap edge switches (the paper's
    DLink 8-ports) have noticeably higher forwarding latency than the
    3Com units, which is one of the sources of the latency heterogeneity
    CBES exploits.
    """

    switch_id: str
    nports: int
    forward_latency_s: float = 6e-6
    backplane_bps: float = 2.4e9

    def __post_init__(self) -> None:
        if not self.switch_id:
            raise ValueError("switch_id must be nonempty")
        if self.nports < 1:
            raise ValueError("nports must be >= 1")
        check_positive(self.forward_latency_s, "forward_latency_s")
        check_positive(self.backplane_bps, "backplane_bps")


@dataclass(frozen=True)
class LinkSpec:
    """A physical link between two fabric elements."""

    bandwidth_bps: float = 100e6
    latency_s: float = 0.5e-6

    def __post_init__(self) -> None:
        check_positive(self.bandwidth_bps, "bandwidth_bps")
        check_positive(self.latency_s, "latency_s")


class NetworkFabric:
    """The physical interconnect: hosts, switches, and links.

    Hosts and switches share one identifier namespace; adding a host and
    a switch with the same id is an error.  Paths between hosts are
    shortest paths by hop count, ties going to link insertion order (see
    the module docstring), matching flat switched-ethernet forwarding.
    """

    def __init__(self) -> None:
        #: element -> {neighbour: link}, both in insertion order.
        self._adj: dict[str, dict[str, LinkSpec]] = {}
        self._switches: dict[str, SwitchSpec] = {}
        self._hosts: set[str] = set()
        #: source -> BFS parent of every element (the source maps to None).
        self._trees: dict[str, dict[str, str | None]] = {}

    # -- construction ------------------------------------------------
    def _add_element(self, element: str) -> None:
        if element in self._adj:
            raise ValueError(f"fabric element {element!r} already exists")
        self._adj[element] = {}
        self._trees.clear()

    def add_switch(self, spec: SwitchSpec) -> None:
        """Register a switch vertex."""
        self._add_element(spec.switch_id)
        self._switches[spec.switch_id] = spec

    def add_host(self, host_id: str) -> None:
        """Register a host (node NIC) vertex."""
        self._add_element(host_id)
        self._hosts.add(host_id)

    def connect(self, a: str, b: str, link: LinkSpec | None = None) -> None:
        """Wire two fabric elements together with *link* (default 100 Mb)."""
        for end in (a, b):
            if end not in self._adj:
                raise KeyError(f"unknown fabric element {end!r}")
        if a == b:
            raise ValueError("cannot connect an element to itself")
        for end in (a, b):
            used = self.ports_used(end)
            if end in self._switches and used >= self._switches[end].nports:
                raise ValueError(
                    f"switch {end!r} has no free ports ({used}/{self._switches[end].nports})"
                )
        spec = link or LinkSpec()
        self._adj[a][b] = spec
        self._adj[b][a] = spec
        self._trees.clear()

    # -- queries -----------------------------------------------------
    @property
    def hosts(self) -> frozenset[str]:
        return frozenset(self._hosts)

    @property
    def switches(self) -> dict[str, SwitchSpec]:
        return dict(self._switches)

    def ports_used(self, element: str) -> int:
        """Number of links currently attached to *element*."""
        try:
            return len(self._adj[element])
        except KeyError:
            raise KeyError(f"unknown fabric element {element!r}") from None

    def is_switch(self, element: str) -> bool:
        return element in self._switches

    def link(self, a: str, b: str) -> LinkSpec:
        """The link wiring *a* to *b* directly."""
        try:
            return self._adj[a][b]
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> list[tuple[str, str, LinkSpec]]:
        """Every link once, as ``(a, b, spec)``, in element insertion order."""
        seen: set[str] = set()
        found = []
        for a, neighbours in self._adj.items():
            found.extend((a, b, spec) for b, spec in neighbours.items() if b not in seen)
            seen.add(a)
        return found

    def validate(self) -> None:
        """Check the fabric is usable: connected, hosts on switches only.

        Raises ``ValueError`` describing the first problem found.
        """
        if not self._hosts:
            raise ValueError("fabric has no hosts")
        if len(self._tree(next(iter(self._adj)))) != len(self._adj):
            raise ValueError("fabric is not connected")
        for host in self._hosts:
            neighbours = list(self._adj[host])
            if len(neighbours) != 1:
                raise ValueError(f"host {host!r} must have exactly one uplink, has {len(neighbours)}")
            if neighbours[0] not in self._switches:
                raise ValueError(f"host {host!r} must be wired to a switch, not {neighbours[0]!r}")

    def _tree(self, src: str) -> dict[str, str | None]:
        """BFS parents from *src* over the reachable elements (cached)."""
        tree = self._trees.get(src)
        if tree is None:
            tree = {src: None}
            frontier = [src]
            while frontier:
                nxt = []
                for element in frontier:
                    for neighbour in self._adj[element]:
                        if neighbour not in tree:
                            tree[neighbour] = element
                            nxt.append(neighbour)
                frontier = nxt
            self._trees[src] = tree
        return tree

    def path(self, src: str, dst: str) -> tuple[str, ...]:
        """Shortest forwarding path between two hosts (inclusive)."""
        for end in (src, dst):
            if end not in self._hosts:
                raise KeyError(f"unknown host {end!r}")
        tree = self._tree(src)
        if dst not in tree:
            raise ValueError(f"no path from {src!r} to {dst!r}")
        hops: list[str] = []
        at: str | None = dst
        while at is not None:
            hops.append(at)
            at = tree[at]
        return tuple(reversed(hops))

    def path_links(self, src: str, dst: str) -> list[tuple[str, str, LinkSpec]]:
        """Links traversed on the forwarding path from *src* to *dst*."""
        verts = self.path(src, dst)
        return [(a, b, self._adj[a][b]) for a, b in zip(verts, verts[1:], strict=False)]

    def path_switches(self, src: str, dst: str) -> list[SwitchSpec]:
        """Switches traversed on the forwarding path (in order)."""
        return [self._switches[v] for v in self.path(src, dst) if v in self._switches]

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        """Minimum link bandwidth along the forwarding path in bits/s."""
        if src == dst:
            raise ValueError("src and dst must differ")
        return min(link.bandwidth_bps for _, _, link in self.path_links(src, dst))

    def hop_count(self, src: str, dst: str) -> int:
        """Number of links on the forwarding path."""
        return len(self.path(src, dst)) - 1

    def switch_of(self, host: str) -> str:
        """The edge switch *host* is wired to."""
        if host not in self._hosts:
            raise KeyError(f"unknown host {host!r}")
        return next(iter(self._adj[host]))

"""Mappings of application tasks onto cluster nodes (paper eqs. 1–3).

A mapping ``M`` is a set of ``(process, node)`` pairs, one per process.
We represent it as an immutable assignment ``rank -> node id``; the
scheduler moves (:mod:`repro.schedulers.moves`) derive neighbours from
it without mutation.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.core.errors import InvalidMappingError

__all__ = ["TaskMapping"]


class TaskMapping:
    """An immutable assignment of ``nM`` processes to cluster nodes."""

    __slots__ = ("_nodes", "_hash")

    def __init__(self, nodes: Sequence[str] | Mapping[int, str]):
        if isinstance(nodes, Mapping):
            if sorted(nodes) != list(range(len(nodes))):
                raise InvalidMappingError("mapping keys must be exactly ranks 0..n-1")
            seq = tuple(nodes[r] for r in range(len(nodes)))
        else:
            seq = tuple(nodes)
        if not seq:
            raise InvalidMappingError("a mapping must place at least one process")
        if not all(isinstance(n, str) and n for n in seq):
            raise InvalidMappingError("node ids must be nonempty strings")
        self._nodes = seq
        self._hash = hash(seq)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, str]]) -> "TaskMapping":
        """Build from explicit (process, node) pairs, the paper's form."""
        d = {}
        for rank, node in pairs:
            if rank in d:
                raise InvalidMappingError(f"process {rank} assigned twice")
            d[rank] = node
        return cls(d)

    @classmethod
    def _trusted(cls, nodes: tuple[str, ...]) -> "TaskMapping":
        """Wrap a node tuple the caller vouches for, skipping validation.

        For derivations from an already-valid mapping (and the search
        loop's own node lists): every id either came out of a validated
        mapping or was checked on its way in.
        """
        self = object.__new__(cls)
        self._nodes = nodes
        self._hash = hash(nodes)
        return self

    # -- queries ------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        """Number of application processes this mapping places."""
        return len(self._nodes)

    def node_of(self, rank: int) -> str:
        """The node hosting MPI rank *rank*."""
        if not 0 <= rank < len(self._nodes):
            raise InvalidMappingError(f"rank {rank} out of range for {len(self._nodes)} processes")
        return self._nodes[rank]

    def as_dict(self) -> dict[int, str]:
        """The mapping as a rank -> node-id dictionary."""
        return {r: n for r, n in enumerate(self._nodes)}

    def as_tuple(self) -> tuple[str, ...]:
        """The mapping as a node-id tuple indexed by rank."""
        return self._nodes

    def nodes_used(self) -> frozenset[str]:
        """The distinct node ids this mapping occupies."""
        return frozenset(self._nodes)

    def procs_per_node(self) -> dict[str, int]:
        """How many processes each used node hosts under this mapping."""
        counts: dict[str, int] = {}
        for node in self._nodes:
            counts[node] = counts.get(node, 0) + 1
        return counts

    @property
    def is_one_per_node(self) -> bool:
        """Whether no node hosts more than one process (paper default)."""
        return len(set(self._nodes)) == len(self._nodes)

    def require_nodes(self, valid: Iterable[str]) -> None:
        """Raise unless every assigned node is in *valid*."""
        pool = set(valid)
        unknown = [n for n in self._nodes if n not in pool]
        if unknown:
            raise InvalidMappingError(f"mapping uses nodes outside the pool: {sorted(set(unknown))}")

    # -- derivation ----------------------------------------------------------
    def with_assignment(self, rank: int, node: str) -> "TaskMapping":
        """A copy with one process moved to *node*."""
        if not 0 <= rank < len(self._nodes):
            raise InvalidMappingError(f"rank {rank} out of range")
        if not (isinstance(node, str) and node):
            raise InvalidMappingError("node ids must be nonempty strings")
        nodes = list(self._nodes)
        nodes[rank] = node
        return TaskMapping._trusted(tuple(nodes))

    def with_swap(self, rank_a: int, rank_b: int) -> "TaskMapping":
        """A copy with two processes' nodes swapped."""
        nprocs = len(self._nodes)
        if not (0 <= rank_a < nprocs and 0 <= rank_b < nprocs):
            raise InvalidMappingError("swap ranks out of range")
        nodes = list(self._nodes)
        nodes[rank_a], nodes[rank_b] = nodes[rank_b], nodes[rank_a]
        return TaskMapping._trusted(tuple(nodes))

    # -- dunder ----------------------------------------------------------------
    def __reduce__(self):
        """Pickle by node sequence, never by cached state.

        ``_hash`` caches ``hash()`` of the node tuple, and string hashing
        is salted per interpreter run — a mapping shipped to another
        process must recompute it there or equal mappings would disagree
        in sets and dicts.
        """
        return (TaskMapping, (self._nodes,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TaskMapping) and self._nodes == other._nodes

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskMapping({list(self._nodes)!r})"

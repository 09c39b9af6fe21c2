"""Neighbourhood move generators for local-search schedulers.

The simulated-annealing and genetic schedulers explore the mapping space
through two elementary moves:

* **swap** — exchange the nodes of two processes (changes which rank
  sits where, not which nodes are used: this is what exploits
  communication topology);
* **replace** — move one process to an unused node from the pool
  (changes the node *set*: this is what exploits node speed and load).

Both preserve the one-process-per-node invariant.

The search loop speaks *moves*, not mappings: :meth:`MoveGenerator.draw`
returns a :class:`Move` against an :class:`Occupancy` — which nodes the
current mapping uses and which pool nodes are free, computed once and
then advanced move by accepted move — so drawing costs the two or three
random numbers it consumes, not a walk over the pool, and the evaluator
(:meth:`repro.core.fast_eval.IncrementalEvaluator.propose_move`) is told
which ranks moved instead of rediscovering them.

The RNG draw order and the pool-order free list are the search's
determinism contract: ``tests/test_move_protocol.py`` holds :meth:`draw`
to the candidate sequence of the original per-mapping generator.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro._rng import Rng
from repro.core.errors import InvalidMappingError
from repro.core.mapping import TaskMapping

__all__ = ["Move", "MoveGenerator", "Occupancy"]


class Move:
    """One elementary move: ``swap(rank, other)`` or ``replace(rank, node)``.

    ``node is None`` marks a swap.  A swap of a rank with itself is the
    identity — what the generator draws when no move is possible (one
    process, no free node).
    """

    __slots__ = ("rank", "other", "node")

    def __init__(self, rank: int, other: int, node: str | None = None):
        self.rank = rank
        self.other = other
        self.node = node

    @classmethod
    def swap(cls, rank: int, other: int) -> "Move":
        """Exchange the nodes of processes *rank* and *other*."""
        return cls(rank, other)

    @classmethod
    def replace(cls, rank: int, node: str) -> "Move":
        """Relocate process *rank* to *node*."""
        return cls(rank, rank, node)

    def apply(self, mapping: TaskMapping) -> TaskMapping:
        """The mapping this move turns *mapping* into."""
        if self.node is not None:
            return mapping.with_assignment(self.rank, self.node)
        if self.rank == self.other:
            return mapping
        return mapping.with_swap(self.rank, self.other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.node is None:
            return f"Move.swap({self.rank}, {self.other})"
        return f"Move.replace({self.rank}, {self.node!r})"


class Occupancy:
    """Which nodes one evolving mapping uses, and which pool nodes are free.

    Built once per search chain (:meth:`MoveGenerator.occupancy`) and
    advanced with :meth:`apply` as moves are accepted.  ``free`` holds
    pool slots in ascending order, so ``pool[free[k]]`` is the k-th free
    node in pool order — the list the draw indexes into.
    """

    __slots__ = ("nodes", "free", "_pool", "_slot", "_count")

    def __init__(self, pool: list[str], slot: dict[str, int], mapping: TaskMapping):
        self.nodes: list[str] = list(mapping.as_tuple())
        count: dict[str, int] = {}
        for node in self.nodes:
            count[node] = count.get(node, 0) + 1
        self._count = count
        self._pool = pool
        self._slot = slot
        self.free: list[int] = [i for i, node in enumerate(pool) if node not in count]

    def apply(self, move: Move) -> None:
        """Advance to the mapping *move* (drawn against this state) produces."""
        nodes = self.nodes
        a, b = move.rank, move.other
        if not (0 <= a < len(nodes) and 0 <= b < len(nodes)):
            raise InvalidMappingError(f"move ranks out of range: {move!r}")
        node = move.node
        if node is None:
            nodes[a], nodes[b] = nodes[b], nodes[a]
            return
        old = nodes[a]
        nodes[a] = node
        count = self._count
        free = self.free
        del free[bisect_left(free, self._slot[node])]
        count[node] = 1
        left = count[old] - 1
        if left:
            count[old] = left
        else:
            # The last rank left: the node is free again, if it is a
            # pool node at all (a warm start may sit outside the pool).
            del count[old]
            slot = self._slot.get(old)
            if slot is not None:
                insort(free, slot)

    def mapping(self) -> TaskMapping:
        """The current state as a :class:`TaskMapping`."""
        return TaskMapping._trusted(tuple(self.nodes))  # noqa: SLF001 - ids came from mappings/pool


class MoveGenerator:
    """Draws random neighbours of a mapping over a fixed node pool."""

    def __init__(self, pool: list[str], *, swap_probability: float = 0.5):
        if not 0.0 <= swap_probability <= 1.0:
            raise ValueError("swap_probability must be in [0, 1]")
        self._pool = list(dict.fromkeys(pool))
        self._slot = {node: i for i, node in enumerate(self._pool)}
        self._swap_p = swap_probability

    @property
    def pool(self) -> list[str]:
        """The candidate node pool moves draw from (a copy)."""
        return list(self._pool)

    def occupancy(self, mapping: TaskMapping) -> Occupancy:
        """The draw state for a chain of moves starting at *mapping*."""
        return Occupancy(self._pool, self._slot, mapping)

    def draw(self, occupancy: Occupancy, rng: Rng) -> Move:
        """One random elementary move against *occupancy*.

        Consumes the stream exactly as the per-mapping generator did: a
        uniform only when both kinds are possible, then two distinct
        ranks for a swap (the words of ``choice(nprocs, 2,
        replace=False)``), or a rank and a free-list index for a replace
        (those of two ``integers``), drawn here straight off
        ``_randbelow``.
        """
        nprocs = len(occupancy.nodes)
        free = occupancy.free
        below = rng._randbelow  # noqa: SLF001 - the draw is the RNG's own word pattern
        if nprocs >= 2 and (not free or rng.random() < self._swap_p):
            rank = below(nprocs)
            other = 1 + below(nprocs - 1)
            return Move(rank, 0 if other == rank else other)
        if not free:
            return Move(0, 0)  # one process, no free node: the identity
        rank = below(nprocs)
        return Move(rank, rank, self._pool[free[below(len(free))]])

    def neighbour(self, mapping: TaskMapping, rng: Rng) -> TaskMapping:
        """One random elementary move applied to *mapping*."""
        return self.draw(self.occupancy(mapping), rng).apply(mapping)

"""The evaluation kernel: precomputed context + delta evaluation.

The schedulers of section 6 spend essentially all their time inside the
mapping-evaluation formula ``S_M = max_i (R_i + C_i)`` (eqs. 4-8).  The
paper oracle, :meth:`repro.core.evaluation.MappingEvaluator.predict`,
rebuilds the ACPU table and re-walks every message group of every
process on each call — right for a one-shot quote, wasteful inside a
search loop where one move relocates one or two ranks, and wasteful in
a daemon that prices quote after quote under one snapshot
(:meth:`EvaluationContext.rows` is the same per-rank ``R_i`` / ``C_i``
off the frozen context).

Everything that evaluates candidates in a loop — schedulers, pool
workers, the remapper, the daemon — does it through this module:

:class:`EvaluationContext`
    Everything about ``(profile, latency model, nodes, snapshot,
    options)`` that does **not** depend on the candidate mapping, frozen
    once: per-node speeds, the ACPU-vs-colocation curves, the pairwise
    latency components as flat row-major tables (the bulk form of a
    memo table keyed by ``(src, dst, size)``; the system half,
    :class:`SystemTables`, which every application's context of one
    snapshot shares), and the profile's message groups as per-rank
    record lists.  The canonical storage is plain python lists — the
    context builds and serves evaluations without numpy — with numpy
    mirrors materialized lazily for the batched kernel.  A context is
    bound to one snapshot *fingerprint*
    (:meth:`repro.monitoring.snapshot.SystemSnapshot.fingerprint`);
    fresher monitoring data invalidates it.

    An :class:`~repro.core.evaluation.EvaluationOptions` toggle is a
    table substitution made there, in ``__init__``, and nowhere else:
    ``use_lambda`` off is ``lam`` of ones, ``cpu_availability`` off an
    ACPU curve of ones, ``load_adjusted_latency`` off idle NICs (``binv``
    is ``beta``) and an endpoint stretch of ones — ``L_0`` is ``L_c``
    read on an idle system — and ``communication`` off empty message
    groups.  No kernel reads an option, so eq. 6's message-group term
    ``count * L(src, dst, size)`` has exactly two expressions: one over
    lists (:meth:`EvaluationContext._fill_terms`, behind the full
    evaluation and the delta alike) and one over ndarrays
    (``_evaluate_many_numpy``).

:meth:`EvaluationContext.evaluate_many`
    The batched kernel: energies of a whole population of mappings in
    one sweep.  Two interchangeable backends — a pure-python reference
    and a vectorized numpy kernel — produce **bit-identical** energies;
    the operation order of the numpy kernel (gathers, row-major bincount
    reductions) was chosen to replay the scalar loop exactly.  Selection
    is per-call via ``REPRO_EVAL_BACKEND`` (``auto`` | ``numpy`` |
    ``python``); ``auto`` uses numpy when installed and falls back
    cleanly when it is not.  Population schedulers (every GA
    generation) batch; the SA family scores one mapping at a time on the
    scalar kernel, its seed scan and the remapper's stay / move pair
    included, so a process that serves quotes and SA searches never
    imports numpy.

:class:`IncrementalEvaluator`
    Mutable search state over a context: ``propose_move(move)`` (or
    ``propose(candidate)``, the same kernel behind a diff) returns the
    candidate's ``S_M``; ``commit()`` / ``reject()`` resolve the
    proposal.  The unit it recomputes is one message-group *term*,
    ``count * L(src, dst, size)``: the evaluator keeps the committed
    term list of every rank (:meth:`EvaluationContext.comm_terms`), and
    a move recomputes every term of the ranks whose own node or ACPU
    changed, and of a rank that merely has one of those as a peer only
    the terms facing it.  Each such term is a message with a changed
    rank at an end, and each such message is priced once: both kinds
    of term are read back from its one price.  What is re-folded is
    ``C_i``: ``λ_i`` times the left fold of the rank's whole list, in
    group order.  A term is recomputed *from scratch* or
    left alone, never adjusted (no ``+= delta`` anywhere), and the fold
    keeps the scalar association, so the incremental state equals a
    fresh full evaluation exactly, however long the move sequence
    runs.  ``R_i`` is recomputed for moved ranks and the ranks on
    ACPU-changed nodes.  Its ``many(mappings)`` method exposes the
    batched kernel to population schedulers while keeping the
    evaluation counter exact.

The reference ``predict()`` stays authoritative, and it writes eqs. 5-6
in the association the kernels here use, so agreement is ``==``:
``tests/test_fast_eval.py`` holds this module equal to it over
randomized move sequences (and ``breakdown`` equal field for field) and
the cached terms to ``==`` with a fresh evaluation after every commit
and reject, ``tests/test_batch_eval.py`` holds the two batch backends
to bit-identical agreement, and ``benchmarks/
bench_batch_eval.py`` measures the population speedup (target: >= 10x
on 64 nodes / 32 ranks / 256 mappings).  There is no second path to
fall back to: inputs no context can serve (an empty node table here, an
out-of-range message peer in :class:`~repro.profiling.profile.
ApplicationProfile`) are refused with ``ValueError`` where they enter.
"""

from __future__ import annotations

import itertools
import os
from array import array
from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from typing import Any

from repro._util import left_fold
from repro.cluster.latency import LatencyModel
from repro.cluster.node import Node
from repro.core.errors import CbesError, InvalidMappingError
from repro.core.evaluation import EvaluationOptions, MappingPrediction, ProcessPrediction
from repro.core.mapping import TaskMapping
from repro.monitoring.snapshot import SystemSnapshot
from repro.profiling.profile import ApplicationProfile
from repro.simulate.contention import cpu_share

__all__ = [
    "FastEvalUnavailable",
    "EvaluationContext",
    "SystemTables",
    "IncrementalEvaluator",
    "active_backend",
]

_UNPROBED = object()

#: numpy (the optional [speed] extra; the python backend is complete),
#: imported by the first :func:`active_backend` that could use it, so a
#: process that never batches never loads it.  None when it is not
#: installed; tests patch it to None to hide an installed numpy.
np: Any = _UNPROBED


def _numpy() -> Any:
    """The numpy module, or None when it is not installed (probed once)."""
    global np
    if np is _UNPROBED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
            np = None
        else:
            np = numpy
    return np


class FastEvalUnavailable(CbesError):
    """``REPRO_EVAL_BACKEND=numpy`` was requested but numpy is not installed.

    A deployment error, raised by :func:`active_backend`; nothing in the
    package catches it.
    """


def active_backend() -> str:
    """Resolve the batch-evaluation backend for this call.

    ``REPRO_EVAL_BACKEND`` may be ``auto`` (default: numpy when
    installed, python otherwise), ``numpy`` (require the vectorized
    kernel; raises :class:`FastEvalUnavailable` when numpy is absent),
    or ``python`` (force the pure-python reference).  Read per call so
    tests and operators can flip backends without rebuilding contexts.
    """
    choice = os.environ.get("REPRO_EVAL_BACKEND", "auto").strip().lower() or "auto"
    if choice not in ("auto", "numpy", "python"):
        raise ValueError(f"REPRO_EVAL_BACKEND must be auto, numpy, or python, got {choice!r}")
    if choice == "python":
        return "python"
    if _numpy() is None:
        if choice == "numpy":
            raise FastEvalUnavailable(
                "REPRO_EVAL_BACKEND=numpy but numpy is not installed "
                "(install the [speed] extra)"
            )
        return "python"
    return "numpy"


#: One message group of a rank: ``(g, src, dst, count, size)``.
_Record = tuple[int, int, int, float, float]

#: At most this many message sizes of one context get a latency table
#: (:meth:`EvaluationContext._size_tables`): 8 x 128 KiB at 128 nodes.
MAX_SIZE_TABLES = 8


class SystemTables:
    """The system half of the contexts of one snapshot (paper section 2):
    what no application changes, over the sorted node universe.

    Each part is built on first use and then shared, a context's
    attributes being these very lists: the pair tables (:meth:`pairs`),
    which read the latency model alone and so pass from *previous*, the
    tables of an earlier snapshot under the same model and nodes; and per
    ``load_adjusted_latency`` setting the slopes (:meth:`slopes`), which
    pass from *previous* too when load-off (no snapshot read) or when no
    node's NIC load moved (the one load they read).  The
    holder builds under its own lock (a ``Generation``'s); two holders
    racing on a shared part build an equal copy twice and keep one.
    """

    def __init__(
        self,
        latency_model: LatencyModel,
        node_ids: Sequence[str],
        snapshot: SystemSnapshot,
        *,
        previous: SystemTables | None = None,
    ) -> None:
        self.latency_model = latency_model
        self.node_ids: tuple[str, ...] = tuple(node_ids)
        self.index: dict[str, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        self.snapshot = snapshot
        self._pairs: tuple | None = None
        self._slopes: dict[bool, tuple] = {}
        if previous is not None:
            previous.check(latency_model, self.node_ids)
            self._pairs = previous._pairs
            nic_kept = all(
                snapshot.nic_load(nid) == previous.snapshot.nic_load(nid) for nid in self.node_ids
            )
            self._slopes = {on: part for on, part in previous._slopes.items() if nic_kept or not on}

    def check(self, latency_model: LatencyModel, node_ids: tuple[str, ...]) -> None:
        """Raise ValueError unless these tables are of *latency_model* (the
        same object) over *node_ids*."""
        if latency_model is not self.latency_model or node_ids != self.node_ids:
            raise ValueError("system tables of another latency model or node set")

    def pairs(self) -> tuple[list[float], list[float], list[float], list[float], bool]:
        """``(a_src, a_dst, a_net, beta, missing)``: the memoized latency table,
        flat row-major; ``L(src, dst, size)`` for any size is an affine read
        off it, and *missing* says a NaN marks a pair without data."""
        if self._pairs is None:
            a_src, a_dst, a_net, beta = self.latency_model.component_tables(self.node_ids)
            self._pairs = (a_src, a_dst, a_net, beta, any(x != x for x in a_net))  # NaN scan
        return self._pairs

    def slopes(
        self, load_adjusted: bool
    ) -> tuple[list[float], list[tuple[float, float, float, float]], list[float] | None]:
        """``(binv, comp_flat, idle_acpu)`` under the snapshot's NIC loads.

        ``binv`` is ``beta`` times the NIC stretch 1 / (1 - min(max(nic_s,
        nic_d), 0.95)) of each pair, and ``comp_flat`` its row tuples
        ``(a_src, a_dst, a_net, binv)``: one index, four reads.  Load off
        is the same expression on an idle system (``L_0`` is ``L_c`` at
        nic = 0, ACPU = 1): ``binv`` is ``beta``, and ``idle_acpu`` (None
        under load) stands in for the live ACPU that stretches a
        latency's endpoint terms.
        """
        slopes = self._slopes.get(load_adjusted)
        if slopes is None:
            a_src, a_dst, a_net, beta, _ = self.pairs()
            n = len(self.node_ids)
            if load_adjusted:
                nic = [self.snapshot.nic_load(nid) for nid in self.node_ids]
                binv = [
                    beta[i * n + j] * (1.0 / (1.0 - min(max(nic[i], nic[j]), 0.95)))
                    for i in range(n)
                    for j in range(n)
                ]
                idle: list[float] | None = None
            else:
                binv, idle = beta, [1.0] * n
            comp_flat = list(zip(a_src, a_dst, a_net, binv, strict=True))
            slopes = self._slopes[load_adjusted] = (binv, comp_flat, idle)
        return slopes


class EvaluationContext:
    """Mapping-independent precomputation for one evaluator configuration.

    The context is valid only for the snapshot it was built from
    (:attr:`snapshot_fingerprint`); its holder drops it when the
    snapshot moves on.

    Storage is plain python lists, a view over two halves: the pair
    tables ``_a_src`` .. ``_beta``, ``_binv`` and ``_comp_flat`` are the
    lists of *system* (:class:`SystemTables`, built here when not
    given; one of another latency model, node set or snapshot is a
    ValueError), shared by every context of a generation; per-node columns
    (``speed``, ``acpu_curve``), per-rank message-group records
    (``groups``), the distinct messages they name (``_messages``) and
    the delta kernel's indexes over them (``_rank_messages``,
    ``_peer_patches``) are this context's own, all picklable.  Numpy
    mirrors, the groups as CSR columns among them, are built lazily
    (:meth:`_np_cols`) the first time the vectorized batch kernel runs.
    """

    def __init__(
        self,
        profile: ApplicationProfile,
        latency_model: LatencyModel,
        nodes: MappingABC[str, Node],
        snapshot: SystemSnapshot,
        options: EvaluationOptions = EvaluationOptions(),
        *,
        fingerprint: str | None = None,
        system: SystemTables | None = None,
    ) -> None:
        if not nodes:
            raise ValueError("evaluation context requires at least one node")
        self.profile = profile
        self.options = options
        #: Digest of *snapshot*: the one the caller already holds
        #: (*fingerprint*), else hashed here.
        self.snapshot_fingerprint = (
            fingerprint if fingerprint is not None else snapshot.fingerprint()
        )
        if system is None:
            system = SystemTables(latency_model, sorted(nodes), snapshot)
        else:
            system.check(latency_model, tuple(sorted(nodes)))
            if system.snapshot is not snapshot:
                raise ValueError("system tables of another snapshot")
        self.system = system
        self.node_ids = self.system.node_ids
        self.index = self.system.index
        n = len(self.node_ids)
        self.nnodes = n
        nprocs = profile.nprocs
        self.nprocs = nprocs

        # -- per-node columns
        self.speed: list[float] = [
            nodes[nid].speed_for(profile.arch_speed_ratios) for nid in self.node_ids
        ]

        # ACPU-vs-colocation curve per node: acpu_curve[j][k] is ACPU_j
        # with k co-mapped processes (k = 0 column unused, kept at 1.0).
        # With cpu_availability off, eq. 5's 1/ACPU factor and the
        # endpoint stretching both use 1.0, exactly like the reference.
        # Every backend reads ACPU off this curve; the fair-share rule
        # itself lives in ``cpu_share`` only.
        if options.cpu_availability:
            loads = [
                (snapshot.ncpus.get(nid, 1), snapshot.background_load(nid))
                for nid in self.node_ids
            ]
            self.acpu_curve: list[list[float]] = [
                [1.0] + [cpu_share(ncpus, k, bg) for k in range(1, nprocs + 1)]
                for ncpus, bg in loads
            ]
        else:
            self.acpu_curve = [[1.0] * (nprocs + 1) for _ in range(n)]

        # -- the system half's lists, read by name
        self._a_src, self._a_dst, self._a_net, self._beta, self._missing_pairs = (
            self.system.pairs()
        )
        self._binv, self._comp_flat, self._idle_acpu = self.system.slopes(
            options.load_adjusted_latency
        )

        # -- per-rank profile columns
        self.work: list[float] = [
            p.compute_time * profile.profile_speeds[p.rank] for p in profile.processes
        ]
        self.lam: list[float] = [
            (p.lam if options.use_lambda else 1.0) for p in profile.processes
        ]
        #: groups[r] — the message groups of rank r, recvs first (the
        #: reference summation order, and the accumulation order of
        #: every backend): one record ``(g, src, dst, count, size)`` per
        #: group, g its index in the list, src -> dst the sending and
        #: the receiving rank (r is one of them, its peer the other).
        #: Empty for every rank with communication off: ``Θ_i`` folds
        #: to 0.0.
        self.groups: list[list[_Record]] = []
        for p in profile.processes:
            records: list[_Record] = []
            if options.communication:
                ends = [(m.peer, p.rank, m) for m in p.recvs]
                ends += [(p.rank, m.peer, m) for m in p.sends]
                for g, (src, dst, m) in enumerate(ends):
                    records.append((g, src, dst, float(m.count), m.size_bytes))
            self.groups.append(records)
        #: _messages — every distinct message group once, as the record
        #: ``(m, src, dst, count, size)`` with m its index there; and
        #: _group_messages[r][g] — the m of ``groups[r][g]``.  A message
        #: is a group of its sender and of its receiver (and one rank may
        #: hold two equal groups), so an evaluation prices each message
        #: once and reads each rank's terms back by index.  Equal
        #: ``(src, dst, count, size)`` keys are equal operands, so a
        #: shared term is bit for bit the term each group would get.
        self._messages: list[_Record] = []
        self._group_messages: list[list[int]] = []
        distinct: dict[tuple[int, int, float, float], int] = {}
        #: rank_messages[r] — the distinct messages with rank r at an end.
        rank_messages: list[list[_Record]] = [[] for _ in range(nprocs)]
        #: reach[p][r] — the (g, m) of the groups of rank r facing rank p.
        reach: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(nprocs)]
        for r, records in enumerate(self.groups):
            refs = []
            for g, src, dst, count, size in records:
                m = distinct.setdefault((src, dst, count, size), len(distinct))
                if m == len(self._messages):
                    message = (m, src, dst, count, size)
                    self._messages.append(message)
                    rank_messages[src].append(message)
                    if dst != src:
                        rank_messages[dst].append(message)
                refs.append(m)
                peer = dst if src == r else src
                if peer != r:
                    reach[peer].setdefault(r, []).append((g, m))
            self._group_messages.append(refs)
        #: _rank_messages[r] — the distinct messages with rank r at an
        #: end (ascending m): every term a change at r can reach, as a
        #: group of r or of the peer at the other end.
        self._rank_messages: list[tuple[_Record, ...]] = [tuple(ms) for ms in rank_messages]
        #: _peer_patches[p] — the entries of other ranks' term lists a
        #: change at rank p reaches: one ``(r, ((g, m), ...))`` per other
        #: rank r that has p as a peer (ascending r), g the group of r
        #: facing p and m its message.
        self._peer_patches: list[tuple[tuple[int, tuple[tuple[int, int], ...]], ...]] = [
            tuple((r, tuple(pairs)) for r, pairs in by_rank.items())
            for by_rank in reach
        ]
        #: Whether any rank has a message group at all.  The list kernels
        #: exit on it as the ndarray kernel does on an empty ``grank``:
        #: with nothing to fold, an NCS move costs its ``R_i`` only.
        self._has_groups = any(self.groups)
        #: Per-process warm state: the lazily-built numpy mirrors of the
        #: columns and the index arrays of the last batch size (None
        #: until the vectorized batch kernel first runs).
        self._np_cache: dict | None = None
        #: Per-process warm state of the delta kernel: the per-size
        #: latency tables (None until the first delta proposal).
        self._tables: tuple[list[float], list[array | None]] | None = None

    # -- pickling -------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the view's lists, without per-process warm state.

        The numpy column mirrors and the per-size latency tables are
        pure warm state the receiver rebuilds lazily — shipping them
        would bloat the pickle (and pin it to a numpy install the
        receiver may not have); the :class:`SystemTables` holder stays
        home, its lists travel.
        """
        state = dict(self.__dict__)
        state["_np_cache"] = None
        state["_tables"] = None
        state["system"] = None
        return state

    # -- queries --------------------------------------------------------
    def positions(self, mapping: TaskMapping | Sequence[str]) -> list[int]:
        """Node indices per rank of a mapping or its node ids; raises like the reference."""
        if len(mapping) != self.nprocs:
            raise InvalidMappingError(
                f"mapping places {len(mapping)} processes but profile has {self.nprocs}"
            )
        index = self.index
        try:
            return [index[nid] for nid in mapping]
        except KeyError as exc:
            raise InvalidMappingError(f"mapping uses unknown node {exc.args[0]!r}") from None

    def migration_tables(
        self,
    ) -> tuple[
        list[float], list[float], list[float], list[float], list[float], list[float]
    ]:
        """Flat columns for the topology-aware migration cost model.

        Returns ``(a_src, a_dst, a_net, beta, binv, acpu1)``: the
        row-major pair tables (``beta`` the no-load seconds-per-byte,
        ``binv`` the fused load-adjusted slope) and the single-process
        ACPU per node (``acpu_curve[j][1]`` — checkpoint transfers
        involve one process per endpoint).  Used by :meth:`repro.remap.
        cost.MigrationCostModel.moves_from_context` to price mapping
        diffs without per-pair ``components()`` lookups.
        """
        acpu1 = [curve[1] for curve in self.acpu_curve]
        return self._a_src, self._a_dst, self._a_net, self._beta, self._binv, acpu1

    # -- full evaluation (scalar reference) ------------------------------
    def acpu_by_node(self, counts: Sequence[int]) -> list[float]:
        """ACPU per node for a procs-per-node count vector.

        Unused nodes keep ACPU 1.0 (never read; keeps the delta path's
        node-touched bookkeeping consistent with the full path).
        """
        curve = self.acpu_curve
        return [curve[j][k] for j, k in enumerate(counts)]

    def _evaluate_positions(
        self, pos: list[int]
    ) -> tuple[list[float], list[float], list[float], list[list[float]], list[int]]:
        """(R, C, acpu-by-node, message-group terms per rank, procs per node) at *pos*.

        ACPU is read off the curves at the mapped nodes only; every
        other node keeps 1.0, what :meth:`acpu_by_node` gives it.  Each
        distinct message is priced once (:attr:`_messages`).
        """
        counts = [0] * self.nnodes
        for j in pos:
            counts[j] += 1
        curve = self.acpu_curve
        acpu = [1.0] * self.nnodes
        for j in pos:
            acpu[j] = curve[j][counts[j]]
        work, speed = self.work, self.speed
        r_arr = [work[i] / speed[pos[i]] / acpu[pos[i]] for i in range(self.nprocs)]
        if not self._has_groups:  # no message group anywhere: every Θ_i is 0.0
            return r_arr, [0.0] * self.nprocs, acpu, [[] for _ in self.groups], counts
        priced = [0.0] * len(self._messages)
        self._fill_terms(((priced, self._messages),), pos, acpu)
        terms = [[priced[m] for m in refs] for refs in self._group_messages]
        lam = self.lam
        return r_arr, [left_fold(t) * lam[i] for i, t in enumerate(terms)], acpu, terms, counts

    def rows(self, nodes: TaskMapping | Sequence[str]) -> tuple[list[float], list[float]]:
        """``(R, C)`` per rank of a mapping or its node ids (no :class:`TaskMapping` needed)."""
        r_arr, c_arr, _, _, _ = self._evaluate_positions(self.positions(nodes))
        return r_arr, c_arr

    def breakdown(self, mapping: TaskMapping) -> MappingPrediction:
        """The per-rank ``R_i`` / ``C_i`` / node table of one mapping.

        What :meth:`MappingEvaluator.predict` returns, field for field
        and bit for bit, read off this context's tables instead of the
        snapshot and the latency model.
        """
        r_arr, c_arr = self.rows(mapping)
        return MappingPrediction(
            mapping=mapping,
            processes=tuple(
                ProcessPrediction(rank, node_id, r_arr[rank], c_arr[rank])
                for rank, node_id in enumerate(mapping.as_tuple())
            ),
        )

    def execution_time(self, mapping: TaskMapping) -> float:
        """``S_M`` of one mapping (stateless, scalar path)."""
        r_arr, c_arr = self.rows(mapping)
        return max(r + c for r, c in zip(r_arr, c_arr))

    # -- batched evaluation ----------------------------------------------
    def evaluate_many(self, mappings: Sequence[TaskMapping]) -> list[float]:
        """``S_M`` for a whole population of mappings in one sweep.

        The workhorse of population schedulers: GA generation scoring
        submits its mappings here instead of looping.  Backend per
        :func:`active_backend`; both backends produce bit-identical
        energies, so callers never need to know which one served them.
        """
        if not mappings:
            return []
        if active_backend() == "numpy":
            return self._evaluate_many_numpy(mappings)
        return [self.execution_time(mapping) for mapping in mappings]

    def _np_cols(self) -> dict:
        """The numpy mirrors of the context's tables, built on first use."""
        cols = self._np_cache
        if cols is None:
            work = np.asarray(self.work, dtype=float)
            speed = np.asarray(self.speed, dtype=float)
            # CSR columns of all message groups, rank-major and in group
            # order within a rank — the accumulation order of every
            # backend: rows (rank, g, src, dst, count, size).
            csr = np.asarray(
                [(r, *record) for r, records in enumerate(self.groups) for record in records],
                dtype=float,
            ).reshape(-1, 6).T
            cols = {
                "lam": np.asarray(self.lam, dtype=float),
                # The ACPU curves, flat (n, P + 1).
                "acpu": np.asarray(self.acpu_curve, dtype=float).ravel(),
                "a_src": np.asarray(self._a_src, dtype=float),
                "a_dst": np.asarray(self._a_dst, dtype=float),
                "a_net": np.asarray(self._a_net, dtype=float),
                "binv": np.asarray(self._binv, dtype=float),
                "grank": csr[0].astype(np.intp),
                "gcount": csr[4].copy(),
                "gsize": csr[5].copy(),
                # R_i numerator table: work_i / speed_j, flat (P, n).
                "rt": (work[:, None] / speed[None, :]).ravel(),
                "col_n": np.arange(self.nprocs, dtype=np.intp) * self.nnodes,
                # Gather selectors: which rank's position is the message
                # source/destination for each group.
                "gsrc": csr[2].astype(np.intp),
                "gdst": csr[3].astype(np.intp),
                "rows": (0, None, None),
            }
            self._np_cache = cols
        return cols

    def _np_rows(self, cols: dict, nbatch: int) -> tuple:
        """Per-batch-row index arrays, cached for the last batch size.

        ``row_n`` offsets each batch row into a ``(B, n)`` ravel;
        ``theta_idx`` scatters every message group to its owning
        ``(mapping, rank)`` cell of the ``theta`` bincount — both depend
        only on the batch size, so population loops reuse them.
        """
        if cols["rows"][0] != nbatch:
            rows = np.arange(nbatch, dtype=np.intp)[:, None]
            theta_idx = (cols["grank"] + rows * self.nprocs).ravel()
            cols["rows"] = (nbatch, rows * self.nnodes, theta_idx)
        return cols["rows"][1:]

    def _evaluate_many_numpy(self, mappings: Sequence[TaskMapping]) -> list[float]:
        """Vectorized batch kernel — the ndarray form of the term expression.

        Bit-identical to the scalar path by construction: every
        reduction (`bincount` over row-major raveled indices) accumulates
        in exactly the order the scalar loops do, and every elementwise
        expression keeps the scalar association order (``tail`` bakes in
        the same grouping the scalar inner loop uses).  Gathers go
        through flat ``ndarray.take`` indices — several times faster
        than ``take_along_axis`` at these array sizes, which is where
        the 10x population-scoring target comes from.
        """
        cols = self._np_cols()
        nbatch = len(mappings)
        n, nprocs = self.nnodes, self.nprocs
        for mapping in mappings:
            if mapping.nprocs != nprocs:
                raise InvalidMappingError(
                    f"mapping places {mapping.nprocs} processes but profile has {nprocs}"
                )
        index = self.index
        try:
            pos = np.fromiter(
                map(
                    index.__getitem__,
                    itertools.chain.from_iterable(m.as_tuple() for m in mappings),
                ),
                dtype=np.intp,
                count=nbatch * nprocs,
            ).reshape(nbatch, nprocs)
        except KeyError as exc:
            raise InvalidMappingError(f"mapping uses unknown node {exc.args[0]!r}") from None
        row_n, theta_idx = self._np_rows(cols, nbatch)
        flat_nodes = pos + row_n  # (B, P) indices into a (B, n) ravel
        counts = np.bincount(flat_nodes.ravel(), minlength=nbatch * n)
        # ACPU is only ever read at mapped nodes (rank positions and
        # message endpoints), so gather it on the (B, P) grid: the curve
        # cell of each rank's node at that node's process count.
        cell = pos * (nprocs + 1)
        cell += counts.take(flat_nodes)
        acpu_pos = cols["acpu"].take(cell)
        r_arr = cols["rt"].take(pos + cols["col_n"]) / acpu_pos
        if not cols["grank"].size:  # no message group anywhere: every Θ_i is 0.0
            return r_arr.max(axis=1).tolist()
        src = pos.take(cols["gsrc"], axis=1)  # (B, G) source node per group
        dst = pos.take(cols["gdst"], axis=1)
        pair = src * n
        pair += dst
        if self._missing_pairs:
            bad = np.isnan(cols["a_net"].take(pair))
            if bad.any():
                # Ravel order is mapping-major, groups in rank order —
                # the same first-bad-pair the scalar loop would hit.
                b, g = divmod(int(bad.ravel().argmax()), pair.shape[1])
                raise self._no_latency(int(src[b, g]), int(dst[b, g]))
        tail = cols["gsize"] * cols["binv"].take(pair)
        tail += cols["a_net"].take(pair)
        # Endpoint stretch by gathering the (B, P) per-rank table (the
        # live ACPU gathered above, or the idle system's ones) — cheaper
        # than re-offsetting src/dst into the (B, n) ravel.
        stretch = acpu_pos if self._idle_acpu is None else np.ones_like(acpu_pos)
        lat = cols["a_src"].take(pair) / stretch.take(cols["gsrc"], axis=1)
        lat += cols["a_dst"].take(pair) / stretch.take(cols["gdst"], axis=1)
        lat += tail
        lat *= cols["gcount"]
        theta = np.bincount(theta_idx, weights=lat.ravel(), minlength=nbatch * nprocs)
        r_arr += theta.reshape(nbatch, nprocs) * cols["lam"]
        return r_arr.max(axis=1).tolist()

    # -- scalar kernels for the delta path ------------------------------
    def _no_latency(self, s: int, d: int) -> KeyError:
        return KeyError(f"no latency data for pair ({self.node_ids[s]!r}, {self.node_ids[d]!r})")

    def _size_tables(self) -> tuple[list[float], list[array | None]]:
        """``(st, tables)``: the one-rank stretch per node and each
        message's latency table, built on first use.

        ``st[j]`` is the ACPU that stretches a latency's endpoint terms
        at node j when j holds one rank (``acpu_curve[j][1]``, or the
        idle system's 1.0 with load-adjusted latency off).  Each of the
        :data:`MAX_SIZE_TABLES` sizes with the most messages gets one
        table over node pairs, ``X_z[s * n + d] = L(s, d, z)`` under that
        stretch: the operations :meth:`_fill_terms` does, in its order,
        so ``count * X_z[s * n + d]`` is its term bit for bit.
        ``tables[m]`` is the table of message m's size, None for a size
        without one.  Two threads that build at once build equal tables
        and keep one.
        """
        built = self._tables
        if built is None:
            n = self.nnodes
            if self._idle_acpu is not None:
                st = self._idle_acpu
            else:
                st = [curve[1] for curve in self.acpu_curve]
            messages: dict[float, int] = {}
            for _, _, _, _, size in self._messages:
                messages[size] = messages.get(size, 0) + 1
            sizes = sorted(messages, key=lambda size: (-messages[size], size))
            comp = self._comp_flat
            by_size: dict[float, array] = {}
            for z in sizes[:MAX_SIZE_TABLES]:
                table = by_size[z] = array("d", bytes(8 * n * n))
                for s in range(n):  # a row at a time: no n * n list of floats
                    row = s * n
                    st_s = st[s]
                    table[row : row + n] = array("d", [
                        a_s / st_s + a_d / st_d + (a_n + z * slope)
                        for (a_s, a_d, a_n, slope), st_d in zip(comp[row : row + n], st)
                    ])
            tables = [by_size.get(size) for _, _, _, _, size in self._messages]
            built = self._tables = (st, tables)
        return built

    def _fill_terms(
        self, jobs: Sequence[tuple], pos: list[int], acpu: list[float] | None
    ) -> None:
        """``terms[g] = count * L(src, dst, size)`` for every record of every job.

        The list form of eq. 6's message-group term, written here and
        nowhere else.  A job is ``(terms, records)``, each term written
        at its record's own index: *records* are the group records of
        one rank and *terms* its term list (:meth:`comm_terms`), or
        *records* are distinct messages (all of :attr:`_messages`, or
        those of one rank in :attr:`_rank_messages`) and *terms* a list
        indexed by message.

        *acpu* None says no node of *pos* holds two ranks, so every
        mapped node's ACPU is its one-rank value; the records are then
        distinct messages, and a term whose size has a table
        (:meth:`_size_tables`) is read off it, any other computed with
        the one-rank stretch.
        """
        n = self.nnodes
        if self._missing_pairs:
            a_net = self._a_net
            for _, records in jobs:
                for _, src, dst, _, _ in records:
                    s, d = pos[src], pos[dst]
                    if a_net[s * n + d] != a_net[s * n + d]:  # NaN check
                        raise self._no_latency(s, d)
        if acpu is None:
            stretch, tables = self._tables or self._size_tables()
            untabled = []
            for terms, records in jobs:
                for m, src, dst, count, size in records:
                    table = tables[m]
                    if table is None:
                        untabled.append((terms, ((m, src, dst, count, size),)))
                    else:
                        terms[m] = count * table[pos[src] * n + pos[dst]]
            jobs = untabled
        elif self._idle_acpu is None:
            stretch = acpu
        else:
            stretch = self._idle_acpu
        comp = self._comp_flat
        # The grouping below — endpoint terms first, then the load-
        # independent tail ``a_net + size * (beta*invnic)`` as one unit
        # (with the fused ``binv`` slope) — is the association the
        # vectorized backend replays; both paths must keep it for their
        # energies to stay bit-identical.
        for terms, records in jobs:
            for g, src, dst, count, size in records:
                s = pos[src]
                d = pos[dst]
                a_s, a_d, a_n, slope = comp[s * n + d]
                terms[g] = count * (a_s / stretch[s] + a_d / stretch[d] + (a_n + size * slope))

    def comm_terms(self, rank: int, pos: list[int], acpu: list[float]) -> list[float]:
        """The message-group terms of one rank under (pos, acpu), in group order.

        One ``count * L(src, dst, size)`` per group of ``groups[rank]``:
        their left fold is ``Θ_i`` and ``λ_i`` times that is ``C_i``.
        """
        records = self.groups[rank]
        terms = [0.0] * len(records)
        self._fill_terms(((terms, records),), pos, acpu)
        return terms

    def comm_time(self, rank: int, pos: list[int], acpu: list[float]) -> float:
        """``C_i`` of one rank under (pos, acpu): ``λ_i`` times the fold of its terms."""
        return left_fold(self.comm_terms(rank, pos, acpu)) * self.lam[rank]

    def comp_time(self, rank: int, node: int, acpu: list[float]) -> float:
        """``R_i`` of one rank placed on *node* — scalar kernel."""
        return self.work[rank] / self.speed[node] / acpu[node]


class IncrementalEvaluator:
    """Delta-evaluation of mapping moves over a frozen context.

    Protocol (advertised to :func:`repro.schedulers.annealing.anneal`):

    * ``reset(mapping) -> S_M`` — rebind the search state to *mapping*;
    * ``propose_move(move) -> S_M`` — cost of the current mapping after
      one :class:`~repro.schedulers.moves.Move`, recomputing only the
      ranks the move affects; ``propose(candidate)`` is the same kernel
      behind a diff of *candidate* against the current mapping;
    * ``commit()`` / ``reject()`` — resolve the outstanding proposal
      (a new ``propose`` implicitly rejects the previous one);
    * ``evaluator(mapping) -> S_M`` — stateless full evaluation, via
      ``__call__``;
    * ``evaluator.many(mappings) -> [S_M, ...]`` — a whole population in
      one batched sweep (used by every GA generation,
      :func:`repro.schedulers.genetic.ga_generation`).

    ``on_evaluate`` is called once per served evaluation — including
    once per mapping in a ``many`` batch — so the owning
    :class:`~repro.core.evaluation.MappingEvaluator` can keep its
    scheduler cost metric (``evaluations``) accurate and invariant
    across batch sizes and parallel degrees.
    """

    def __init__(
        self,
        context: EvaluationContext,
        mapping: TaskMapping | None = None,
        on_evaluate=None,
    ) -> None:
        self._ctx = context
        self._on_evaluate = on_evaluate
        self._pending: tuple | None = None
        #: Empty until the first committed mapping (unbound).
        self._pos: list[int] = []
        self._counts: list[int] = []
        #: How many nodes of the committed mapping hold two ranks or more.
        self._double = 0
        self._acpu: list[float] = []
        self._r: list[float] = [0.0] * context.nprocs
        self._c: list[float] = [0.0] * context.nprocs
        #: The message-group terms each ``_c[r]`` is the fold of.
        self._terms: list[list[float]] = [[] for _ in range(context.nprocs)]
        self._totals: list[float] = [0.0] * context.nprocs
        #: Scratch of the delta kernel, indexed by message: the term of
        #: every message a proposal re-prices.  It lives here, not on
        #: the context, which evaluators on other threads may share.
        self._priced: list[float] = [0.0] * len(context._messages)
        self._best = float("nan")
        self._arg = -1
        if mapping is not None:
            self.reset(mapping)

    # -- state ----------------------------------------------------------
    @property
    def context(self) -> EvaluationContext:
        """The precomputed evaluation context backing the fast path."""
        return self._ctx

    @property
    def execution_time(self) -> float:
        """``S_M`` of the current (committed) mapping."""
        return self._best

    def _note(self) -> None:
        if self._on_evaluate is not None:
            self._on_evaluate()

    def reset(self, mapping: TaskMapping) -> float:
        """Bind the search state to *mapping* via one full evaluation.

        Always the scalar path (:meth:`EvaluationContext.rows`), so
        an SA trajectory is a pure function of seed and mapping — never
        of which batch backend is selected.
        """
        best = self._propose_full(mapping)
        self.commit()
        return best

    def _propose_full(self, mapping: TaskMapping) -> float:
        """Stage *mapping* as a proposal in which every rank changed."""
        ctx = self._ctx
        pos = ctx.positions(mapping)
        r_arr, c_arr, acpu, terms, counts = ctx._evaluate_positions(pos)
        totals = [r_i + c_i for r_i, c_i in zip(r_arr, c_arr)]
        best = max(totals)
        ranks = range(ctx.nprocs)
        double = sum(1 for k in counts if k > 1)
        proposal = list(zip(ranks, r_arr, c_arr, totals, terms))
        self._pending = (pos, counts, double, acpu, proposal, best, totals.index(best))
        self._note()
        return best

    def __call__(self, mapping: TaskMapping) -> float:
        """Stateless full evaluation of an arbitrary mapping."""
        self._note()
        return self._ctx.execution_time(mapping)

    def many(self, mappings: Sequence[TaskMapping]) -> list[float]:
        """Batched stateless evaluation of a population.

        Counts one evaluation per mapping, exactly like a loop of
        ``__call__`` — telemetry totals are batch-size invariant.
        """
        energies = self._ctx.evaluate_many(mappings)
        for _ in energies:
            self._note()
        return energies

    # -- the propose / commit / reject cycle ----------------------------
    def propose(self, candidate: TaskMapping) -> float:
        """``S_M`` of *candidate*, recomputing only the affected ranks.

        The mapping entry: diff *candidate* against the current mapping,
        then the delta kernel.  A search loop that already knows its
        move uses :meth:`propose_move` and skips the diff.
        """
        if not self._pos:
            return self._propose_full(candidate)
        new_pos = self._ctx.positions(candidate)
        pos = self._pos
        return self._propose_moved(new_pos, [r for r in range(len(pos)) if new_pos[r] != pos[r]])

    def propose_move(self, move) -> float:
        """``S_M`` after *move* (:class:`repro.schedulers.moves.Move`).

        The move entry: the search loop says which ranks go where, so
        nothing is re-indexed or diffed.  Same delta kernel, same float,
        same state as :meth:`propose` of ``move.apply(current)``.
        """
        pos = self._pos
        if not pos:
            raise RuntimeError("propose_move() before reset()")
        new_pos = pos.copy()
        rank, other = move.rank, move.other
        # Checked, not caught: a negative rank would index from the end
        # and stand for the same rank under a second number.
        if not (0 <= rank < len(pos) and 0 <= other < len(pos)):
            raise InvalidMappingError(f"move ranks out of range: {move!r}")
        moved: tuple[int, ...] = (rank,)
        if move.node is None:
            new_pos[rank], new_pos[other] = pos[other], pos[rank]
            moved = (rank, other) if rank < other else (other, rank)
        else:
            try:
                new_pos[rank] = self._ctx.index[move.node]
            except KeyError:
                raise InvalidMappingError(f"mapping uses unknown node {move.node!r}") from None
        if new_pos[rank] == pos[rank]:
            moved = ()  # co-located swap / replace onto its own node
        return self._propose_moved(new_pos, moved)

    def _propose_moved(self, new_pos: list[int], moved: Sequence[int]) -> float:
        """The delta kernel: stage *new_pos*, in which only *moved* changed node.

        *moved* lists, in ascending rank order, exactly the ranks whose
        node differs from the committed mapping.
        """
        self._note()
        if not moved:
            self._pending = (
                new_pos, self._counts, self._double, self._acpu, (), self._best, self._arg
            )
            return self._best
        ctx = self._ctx
        pos = self._pos

        # Node occupancy and ACPU, copied only when a count really
        # changes (a swap permutes nodes among ranks: nothing does), and
        # the count of nodes that hold two ranks or more.
        shift: dict[int, int] = {}
        for r in moved:
            old, new = pos[r], new_pos[r]
            shift[old] = shift.get(old, 0) - 1
            shift[new] = shift.get(new, 0) + 1
        counts, acpu, double = self._counts, self._acpu, self._double
        curve = ctx.acpu_curve
        acpu_changed: list[int] = []
        for node, by in shift.items():
            if by:
                if counts is self._counts:
                    counts = counts.copy()
                was = counts[node]
                k = counts[node] = was + by
                double += (k > 1) - (was > 1)
                value = curve[node][k]  # column 0 is 1.0: an emptied node
                if value != acpu[node]:
                    if acpu is self._acpu:
                        acpu = acpu.copy()
                    acpu[node] = value
                    acpu_changed.append(node)

        # Affected ranks.  ``base``: moved ranks plus every rank hosted
        # on an ACPU-changed node — their R_i changes (eq. 5), and so
        # does the endpoint stretching of their latencies.  Plain loops
        # here and below: a comprehension builds a frame per call.
        base = list(moved)
        if acpu_changed:
            bystanders = 0  # ranks on an ACPU-changed node that did not move
            for node in acpu_changed:
                bystanders += counts[node]
            for r in moved:
                if new_pos[r] in acpu_changed:
                    bystanders -= 1
            if bystanders:
                for r in range(ctx.nprocs):
                    if new_pos[r] in acpu_changed and r not in moved:
                        base.append(r)

        # The proposal: one ``(rank, R_i, C_i, R_i + C_i, terms)`` per
        # recomputed rank, C_i the fold of terms — base ranks first, then
        # patched peers.
        r_list, c_list, t_list = self._r, self._c, self._terms
        work, speed = ctx.work, ctx.speed
        proposal: list[tuple[int, float, float, float, list[float]]] = []
        if ctx._has_groups:
            # Every term with an operand that may have changed is a
            # message with a base rank at an end: price each such
            # message once, into the scratch — off the per-size tables
            # (acpu None) while no node holds two ranks.
            priced = self._priced
            rank_messages = ctx._rank_messages
            jobs = []
            for r in base:
                jobs.append((priced, rank_messages[r]))
            ctx._fill_terms(jobs, new_pos, acpu if double or ctx._missing_pairs else None)
            # A base rank's list is read out of the scratch; a peer's
            # is a copy of its committed list with the entries facing
            # base ranks read from it too.
            read = priced.__getitem__
            group_messages = ctx._group_messages
            folds: list[tuple[int, float, list[float]]] = []  # (rank, R_i, terms)
            for r in base:
                node = new_pos[r]
                r_i = work[r] / speed[node] / acpu[node]  # comp_time, inlined
                folds.append((r, r_i, list(map(read, group_messages[r]))))
            touched = dict.fromkeys(base)
            peer_patches = ctx._peer_patches
            for p in base:
                for r, pairs in peer_patches[p]:
                    if r in touched:
                        terms = touched[r]
                        if terms is None:  # a base rank: its list is fresh
                            continue
                    else:
                        terms = touched[r] = t_list[r].copy()
                        folds.append((r, r_list[r], terms))
                    for g, m in pairs:
                        terms[g] = priced[m]
            lam = ctx.lam
            for r, r_i, terms in folds:
                total = 0.0  # left_fold, inlined
                for term in terms:
                    total += term
                c_i = total * lam[r]
                proposal.append((r, r_i, c_i, r_i + c_i, terms))
        else:  # no message group anywhere (NCS): a move reaches R_i only
            touched = base
            for r in base:
                node = new_pos[r]
                r_i = work[r] / speed[node] / acpu[node]  # comp_time, inlined
                proposal.append((r, r_i, c_list[r], r_i + c_list[r], t_list[r]))

        # Running max: the old argmax stands unless it was recomputed.
        if self._arg in touched:
            everyone = self._totals.copy()
            for r, _, _, total, _ in proposal:
                everyone[r] = total
            best = max(everyone)
            arg = everyone.index(best)
        else:
            best, arg = self._best, self._arg
            for r, _, _, total, _ in proposal:
                if total > best:
                    best, arg = total, r
        self._pending = (new_pos, counts, double, acpu, proposal, best, arg)
        return best

    def commit(self) -> None:
        """Accept the outstanding proposal."""
        if self._pending is None:
            raise RuntimeError("commit() without a pending propose()")
        new_pos, counts, double, acpu, proposal, best, arg = self._pending
        self._pos = new_pos
        self._counts = counts
        self._double = double
        self._acpu = acpu
        r_list, c_list, total_list, term_lists = self._r, self._c, self._totals, self._terms
        for r, r_i, c_i, total, terms in proposal:
            r_list[r] = r_i
            c_list[r] = c_i
            total_list[r] = total
            term_lists[r] = terms
        self._best = best
        self._arg = arg
        self._pending = None

    def reject(self) -> None:
        """Discard the outstanding proposal (no-op when none pending)."""
        self._pending = None

"""The evaluation kernel: precomputed context + delta evaluation.

The schedulers of section 6 spend essentially all their time inside the
mapping-evaluation formula ``S_M = max_i (R_i + C_i)`` (eqs. 4-8).  The
paper oracle, :meth:`repro.core.evaluation.MappingEvaluator.predict`,
rebuilds the ACPU table and re-walks every message group of every
process on each call — right for a one-shot quote, wasteful inside a
search loop where one move relocates one or two ranks, and wasteful in
a daemon that prices quote after quote under one snapshot
(:meth:`EvaluationContext.breakdown` is the same per-rank table off the
frozen context).

Everything that evaluates candidates in a loop — schedulers, pool
workers, the remapper, the daemon — does it through this module:

:class:`EvaluationContext`
    Everything about ``(profile, latency model, nodes, snapshot,
    options)`` that does **not** depend on the candidate mapping, frozen
    once: per-node speeds, the ACPU-vs-colocation curves, the pairwise
    latency components as flat row-major tables (the bulk form of a
    memo table keyed by ``(src, dst, size)``), and the profile's message
    groups as per-rank record lists.  The canonical storage is plain
    python lists — the context builds and serves evaluations without
    numpy — with numpy mirrors materialized lazily for the batched
    kernel.  A context is bound to one snapshot *fingerprint*
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
    cleanly when it is not.

:class:`IncrementalEvaluator`
    Mutable search state over a context: ``propose_move(move)`` (or
    ``propose(candidate)``, the same kernel behind a diff) returns the
    candidate's ``S_M``; ``commit()`` / ``reject()`` resolve the
    proposal.  The unit it recomputes is one message-group *term*,
    ``count * L(src, dst, size)``: the evaluator keeps the committed
    term list of every rank (:meth:`EvaluationContext.comm_terms`), and
    a move recomputes every term of the ranks whose own node or ACPU
    changed, and of a rank that merely has one of those as a peer only
    the terms facing it (:meth:`EvaluationContext.moved_terms`).  What
    is re-folded is ``C_i``: ``λ_i`` times the left fold of the rank's
    whole list, in group order.  A term is recomputed *from scratch* or
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
from collections.abc import Mapping as MappingABC
from collections.abc import Sequence

try:  # numpy is the optional [speed] extra; the python backend is complete.
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

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
    "IncrementalEvaluator",
    "active_backend",
]


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
    if np is None:
        if choice == "numpy":
            raise FastEvalUnavailable(
                "REPRO_EVAL_BACKEND=numpy but numpy is not installed "
                "(install the [speed] extra)"
            )
        return "python"
    return "numpy"


#: One message group of a rank: ``(g, src, dst, count, size)``.
_Record = tuple[int, int, int, float, float]


def left_fold(terms: list[float]) -> float:
    """``((0.0 + t0) + t1) + ...`` — the scalar association of every ``Θ_i``.

    Never builtin ``sum``: CPython >= 3.12 compensates float sums, which
    would change energies with the interpreter version.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


class EvaluationContext:
    """Mapping-independent precomputation for one evaluator configuration.

    The context is valid only for the snapshot it was built from; use
    :meth:`is_valid_for` (fingerprint comparison) before reusing a
    cached instance after a monitoring refresh.

    Storage is plain python lists: per-node columns (``speed``,
    ``acpu_curve``), flat row-major pair tables (``_a_src`` ..
    ``_beta``, ``_binv``) and per-rank message-group records
    (``groups``, indexed by peer in ``peer_groups``).  Numpy mirrors,
    the groups as CSR columns among them, are built lazily
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
        self.node_ids: tuple[str, ...] = tuple(sorted(nodes))
        self.index: dict[str, int] = {nid: i for i, nid in enumerate(self.node_ids)}
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

        # -- pairwise latency components, flat row-major over the node
        # universe.  This is the memoized latency table: one bulk build
        # replaces per-call PathComponents lookups, and ``L(src, dst,
        # size)`` for any size is an affine read off these four tables.
        a_src, a_dst, a_net, beta = latency_model.component_tables(self.node_ids)
        self._a_src: list[float] = a_src
        self._a_dst: list[float] = a_dst
        self._a_net: list[float] = a_net
        self._beta: list[float] = beta
        self._missing_pairs = any(x != x for x in a_net)  # NaN scan
        # Fused serialization slope ``beta * invnic`` (the load-adjusted
        # seconds-per-byte of each ordered pair), invnic the effective
        # NIC stretch 1 / (1 - min(max(nic_s, nic_d), 0.95)).  The no-
        # load option reads the same expression on an idle system —
        # ``L_0`` is ``L_c`` at nic = 0 and ACPU = 1 (``x / 1.0 == x``):
        # ``binv`` is ``beta``, and ``_idle_acpu`` (None otherwise)
        # stands in for the live ACPU list that stretches a latency's
        # endpoint terms.
        if options.load_adjusted_latency:
            nic = [snapshot.nic_load(nid) for nid in self.node_ids]
            self._binv: list[float] = [
                beta[i * n + j] * (1.0 / (1.0 - min(max(nic[i], nic[j]), 0.95)))
                for i in range(n)
                for j in range(n)
            ]
            self._idle_acpu: list[float] | None = None
        else:
            self._binv = beta
            self._idle_acpu = [1.0] * n
        # Row tuples for the scalar inner loop: one index, four reads.
        self._comp_flat: list[tuple[float, float, float, float]] = list(
            zip(a_src, a_dst, a_net, self._binv, strict=True)
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
        reach: list[dict[int, list[_Record]]] = [{} for _ in range(nprocs)]
        for p in profile.processes:
            records: list[_Record] = []
            if options.communication:
                ends = [(m.peer, p.rank, m) for m in p.recvs]
                ends += [(p.rank, m.peer, m) for m in p.sends]
                for g, (src, dst, m) in enumerate(ends):
                    records.append((g, src, dst, float(m.count), m.size_bytes))
                    if m.peer != p.rank:
                        reach[m.peer].setdefault(p.rank, []).append(records[g])
            self.groups.append(records)
        #: peer_groups[p] — the message-group terms a change at rank p
        #: reaches, and only those: one ``(r, records)`` per other rank r
        #: that has p as a peer (ascending r), *records* the records of
        #: ``groups[r]`` whose peer is p.
        self.peer_groups: list[tuple[tuple[int, tuple[_Record, ...]], ...]] = [
            tuple((r, tuple(records)) for r, records in by_rank.items())
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

    # -- pickling -------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without per-process warm state.

        Parallel search workers receive contexts (or rebuild them from
        snapshots); the numpy column mirrors are pure warm state the
        receiver rebuilds lazily — shipping them would bloat the pickle
        (and pin it to a numpy install the receiver may not have).
        """
        state = dict(self.__dict__)
        state["_np_cache"] = None
        return state

    # -- queries --------------------------------------------------------
    def is_valid_for(self, snapshot: SystemSnapshot) -> bool:
        """Whether this context may serve evaluations under *snapshot*."""
        return snapshot.fingerprint() == self.snapshot_fingerprint

    def positions(self, mapping: TaskMapping) -> list[int]:
        """Node indices per rank; raises like the reference on bad input."""
        if mapping.nprocs != self.nprocs:
            raise InvalidMappingError(
                f"mapping places {mapping.nprocs} processes but profile has {self.nprocs}"
            )
        index = self.index
        try:
            return [index[nid] for nid in mapping.as_tuple()]
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

    def evaluate(self, mapping: TaskMapping) -> tuple[list[float], list[float], list[float]]:
        """Full evaluation: (R, C, acpu-by-node) lists.

        Always the scalar python path, so everything built on it — the
        incremental evaluator's rebinds in particular — is independent
        of the batch backend selection.
        """
        r_arr, c_arr, acpu, _, _ = self._evaluate_positions(self.positions(mapping))
        return r_arr, c_arr, acpu

    def _evaluate_positions(
        self, pos: list[int]
    ) -> tuple[list[float], list[float], list[float], list[list[float]], list[int]]:
        """(R, C, acpu-by-node, message-group terms per rank, procs per node) at *pos*."""
        counts = [0] * self.nnodes
        for j in pos:
            counts[j] += 1
        acpu = self.acpu_by_node(counts)
        work, speed = self.work, self.speed
        r_arr = [work[i] / speed[pos[i]] / acpu[pos[i]] for i in range(self.nprocs)]
        if not self._has_groups:  # no message group anywhere: every Θ_i is 0.0
            return r_arr, [0.0] * self.nprocs, acpu, [[] for _ in self.groups], counts
        terms = [[0.0] * len(records) for records in self.groups]
        self._fill_terms(list(zip(terms, self.groups)), pos, acpu)
        lam = self.lam
        return r_arr, [left_fold(t) * lam[i] for i, t in enumerate(terms)], acpu, terms, counts

    def breakdown(self, mapping: TaskMapping) -> MappingPrediction:
        """The per-rank ``R_i`` / ``C_i`` / node table of one mapping.

        What :meth:`MappingEvaluator.predict` returns, field for field
        and bit for bit, read off this context's tables instead of the
        snapshot and the latency model.
        """
        r_arr, c_arr, _, _, _ = self._evaluate_positions(self.positions(mapping))
        return MappingPrediction(
            mapping=mapping,
            processes=tuple(
                ProcessPrediction(rank, node_id, r_arr[rank], c_arr[rank])
                for rank, node_id in enumerate(mapping.as_tuple())
            ),
        )

    def execution_time(self, mapping: TaskMapping) -> float:
        """``S_M`` of one mapping (stateless, scalar path)."""
        r_arr, c_arr, _ = self.evaluate(mapping)
        return max(r + c for r, c in zip(r_arr, c_arr))

    # -- batched evaluation ----------------------------------------------
    def evaluate_many(self, mappings: Sequence[TaskMapping]) -> list[float]:
        """``S_M`` for a whole population of mappings in one sweep.

        The workhorse of population schedulers: GA generation scoring
        and SA restart seeding submit their mappings here instead of
        looping.  Backend per
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

    def _fill_terms(self, jobs: Sequence[tuple], pos: list[int], acpu: list[float]) -> None:
        """``terms[g] = count * L(src, dst, size)`` for every record of every job.

        The list form of eq. 6's message-group term, written here and
        nowhere else.  A job is ``(terms, records)``: *records* are
        group records of one rank (all of ``groups[r]``, or the part of
        them facing one peer) and *terms* that rank's term list,
        written at each record's own index.
        """
        n = self.nnodes
        if self._missing_pairs:
            a_net = self._a_net
            for _, records in jobs:
                for _, src, dst, _, _ in records:
                    s, d = pos[src], pos[dst]
                    if a_net[s * n + d] != a_net[s * n + d]:  # NaN check
                        raise self._no_latency(s, d)
        comp = self._comp_flat
        stretch = acpu if self._idle_acpu is None else self._idle_acpu
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

    def moved_terms(
        self,
        src: Sequence[int],
        committed: list[list[float]],
        pos: list[int],
        acpu: list[float],
    ) -> list[tuple[int, list[float], float]]:
        """``(rank, terms, C_i)`` of every rank a change at the ranks *src* reaches.

        *src* are the ranks whose own node or own ACPU differs between
        the state the term lists *committed* were computed in and (pos,
        acpu): every term of theirs may have a changed operand, so each
        gets a fresh list.  A rank that merely has one of them as a
        peer keeps a copy of its committed list in which only the
        entries of those peers (:attr:`peer_groups`) are recomputed —
        by the same :meth:`_fill_terms` on the same operands, so a
        patched list ``==`` a fresh one — and is re-folded in group
        order.  Nothing in *committed* is written.
        """
        # Plain loops, here and for the fold below: a comprehension's
        # frame and a call per rank are 1.5 us of a 14 us cg.A move.
        groups, peer_groups = self.groups, self.peer_groups
        fresh: dict[int, list[float]] = {}
        jobs = []
        for r in src:
            terms = fresh[r] = [0.0] * len(groups[r])
            jobs.append((terms, groups[r]))
        patched: dict[int, list[float]] = {}
        for p in src:
            for r, records in peer_groups[p]:
                if r in fresh:
                    continue
                terms = patched.get(r)
                if terms is None:
                    terms = patched[r] = committed[r].copy()
                jobs.append((terms, records))
        self._fill_terms(jobs, pos, acpu)
        lam = self.lam
        out = []
        for part in (fresh, patched):
            for r, terms in part.items():
                total = 0.0  # left_fold, inlined
                for term in terms:
                    total += term
                out.append((r, terms, total * lam[r]))
        return out

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
      one batched sweep (used by population schedulers via
      :func:`repro.schedulers.genetic.score_population`).

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
        self._acpu: list[float] = []
        self._r: list[float] = [0.0] * context.nprocs
        self._c: list[float] = [0.0] * context.nprocs
        #: The message-group terms each ``_c[r]`` is the fold of.
        self._terms: list[list[float]] = [[] for _ in range(context.nprocs)]
        self._totals: list[float] = [0.0] * context.nprocs
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

        Always the scalar path (:meth:`EvaluationContext.evaluate`), so
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
        changed = dict(enumerate(zip(r_arr, c_arr, totals, terms)))
        self._pending = (pos, counts, acpu, changed, best, totals.index(best))
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
            self._pending = (new_pos, self._counts, self._acpu, {}, self._best, self._arg)
            return self._best
        ctx = self._ctx
        pos = self._pos

        # Node occupancy and ACPU, copied only when a count really
        # changes (a swap permutes nodes among ranks: nothing does).
        shift: dict[int, int] = {}
        for r in moved:
            old, new = pos[r], new_pos[r]
            shift[old] = shift.get(old, 0) - 1
            shift[new] = shift.get(new, 0) + 1
        counts, acpu = self._counts, self._acpu
        curve = ctx.acpu_curve
        acpu_changed: list[int] = []
        for node, by in shift.items():
            if by:
                if counts is self._counts:
                    counts = counts.copy()
                k = counts[node] = counts[node] + by
                value = curve[node][k]  # column 0 is 1.0: an emptied node
                if value != acpu[node]:
                    if acpu is self._acpu:
                        acpu = acpu.copy()
                    acpu[node] = value
                    acpu_changed.append(node)

        # Affected ranks.  ``base``: moved ranks plus every rank hosted
        # on an ACPU-changed node — their R_i changes (eq. 5), and so
        # does the endpoint stretching of their latencies.
        base = list(moved)
        if acpu_changed and sum(counts[n] for n in acpu_changed) > sum(
            new_pos[r] in acpu_changed for r in moved
        ):
            base += [
                r for r in range(ctx.nprocs) if new_pos[r] in acpu_changed and r not in moved
            ]
        # A message-group term is recomputed where an operand of it
        # may have changed and nowhere else: every term of the ranks in
        # ``base``, and of their peers the terms facing them.
        changed: dict[int, tuple[float, float, float, list[float]]] = {}
        r_list, c_list, t_list = self._r, self._c, self._terms
        if ctx._has_groups:
            for r, terms, c_i in ctx.moved_terms(base, t_list, new_pos, acpu):
                r_i = ctx.comp_time(r, new_pos[r], acpu) if r in base else r_list[r]
                changed[r] = (r_i, c_i, r_i + c_i, terms)
        else:  # no message group anywhere (NCS): a move reaches R_i only
            for r in base:
                r_i = ctx.comp_time(r, new_pos[r], acpu)
                changed[r] = (r_i, c_list[r], r_i + c_list[r], t_list[r])

        # Running max: the old argmax stands unless it was recomputed.
        if self._arg in changed:
            totals = self._totals.copy()
            for r, (_, _, total, _) in changed.items():
                totals[r] = total
            best = max(totals)
            arg = totals.index(best)
        else:
            best, arg = self._best, self._arg
            for r, (_, _, total, _) in changed.items():
                if total > best:
                    best, arg = total, r
        self._pending = (new_pos, counts, acpu, changed, best, arg)
        return best

    def commit(self) -> None:
        """Accept the outstanding proposal."""
        if self._pending is None:
            raise RuntimeError("commit() without a pending propose()")
        new_pos, counts, acpu, changed, best, arg = self._pending
        self._pos = new_pos
        self._counts = counts
        self._acpu = acpu
        for r, (r_i, c_i, total, terms) in changed.items():
            self._r[r] = r_i
            self._c[r] = c_i
            self._totals[r] = total
            self._terms[r] = terms
        self._best = best
        self._arg = arg
        self._pending = None

    def reject(self) -> None:
        """Discard the outstanding proposal (no-op when none pending)."""
        self._pending = None

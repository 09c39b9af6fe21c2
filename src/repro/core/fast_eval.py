"""The evaluation kernel: precomputed context + delta evaluation.

The schedulers of section 6 spend essentially all their time inside the
mapping-evaluation formula ``S_M = max_i (R_i + C_i)`` (eqs. 4-8).  The
paper oracle, :meth:`repro.core.evaluation.MappingEvaluator.predict`,
rebuilds the ACPU table and re-walks every message group of every
process on each call — right for one quote with its per-rank breakdown,
wasteful inside a search loop where one move relocates one or two ranks.

Everything that evaluates candidates in a loop — schedulers, pool
workers, the remapper, the daemon — does it through this module:

:class:`EvaluationContext`
    Everything about ``(profile, latency model, nodes, snapshot,
    options)`` that does **not** depend on the candidate mapping, frozen
    once in a struct-of-arrays layout: per-node speed / cpu / background
    tables, the ACPU-vs-colocation curves, the pairwise latency
    components as flat row-major tables (the bulk form of a memo table
    keyed by ``(src, dst, size)``), and the profile's message groups in
    CSR layout.  The canonical storage is plain python lists — the
    context builds and serves evaluations without numpy — with numpy
    mirrors materialized lazily for the batched kernel.  A context is
    bound to one snapshot *fingerprint* (:meth:`repro.monitoring.
    snapshot.SystemSnapshot.fingerprint`); fresher monitoring data
    invalidates it.

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

The reference ``predict()`` stays authoritative: ``tests/test_fast_eval
.py`` holds this module to 1e-9 agreement with it over randomized move
sequences and the cached terms to ``==`` with a fresh evaluation after
every commit and reject, ``tests/test_batch_eval.py`` holds the two
batch backends to bit-identical agreement, and ``benchmarks/
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
from repro.core.evaluation import EvaluationOptions
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
        raise ValueError(
            f"REPRO_EVAL_BACKEND must be auto, numpy, or python, got {choice!r}"
        )
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

    Storage is struct-of-arrays throughout: per-node columns
    (``speed``, ``_ncpus``, ``_bg``), flat row-major pair tables
    (``_a_src`` .. ``_beta``, ``_invnic``), and CSR message-group
    columns (``_grp_rank`` .. ``_grp_size``) — all plain python lists.
    Numpy mirrors of the columns are built lazily (:meth:`_np_cols`)
    the first time the vectorized batch kernel runs.
    """

    def __init__(
        self,
        profile: ApplicationProfile,
        latency_model: LatencyModel,
        nodes: MappingABC[str, Node],
        snapshot: SystemSnapshot,
        options: EvaluationOptions = EvaluationOptions(),
    ) -> None:
        if not nodes:
            raise ValueError("evaluation context requires at least one node")
        self.profile = profile
        self.options = options
        self.snapshot_fingerprint = snapshot.fingerprint()
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
        self._ncpus: list[int] = [snapshot.ncpus.get(nid, 1) for nid in self.node_ids]
        self._bg: list[float] = [snapshot.background_load(nid) for nid in self.node_ids]
        nic: list[float] = [snapshot.nic_load(nid) for nid in self.node_ids]

        # ACPU-vs-colocation curve per node: acpu_curve[j][k] is ACPU_j
        # with k co-mapped processes (k = 0 column unused, kept at 1.0).
        # With cpu_availability off, eq. 5's 1/ACPU factor and the
        # endpoint stretching both use 1.0, exactly like the reference.
        if options.cpu_availability:
            self.acpu_curve: list[list[float]] = [
                [1.0] + [cpu_share(self._ncpus[j], k, self._bg[j]) for k in range(1, nprocs + 1)]
                for j in range(n)
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
        # Effective NIC stretch per ordered pair: 1 / (1 - min(max(nic_s,
        # nic_d), 0.95)), precomputed so the load-adjusted latency is
        # pure arithmetic.  Identity (all ones) under the no-load option.
        if options.load_adjusted_latency:
            self._invnic: list[float] = [
                1.0 / (1.0 - min(max(nic[i], nic[j]), 0.95))
                for i in range(n)
                for j in range(n)
            ]
        else:
            self._invnic = [1.0] * (n * n)
        # Row tuples for the scalar inner loop: one index, four reads.
        self._comp_flat: list[tuple[float, float, float, float]] = list(
            zip(a_src, a_dst, a_net, beta, strict=True)
        )
        # Fused serialization slope ``beta * invnic`` (the load-adjusted
        # seconds-per-byte of each ordered pair); equals ``beta`` exactly
        # under the no-load option since invnic is identically 1.0.
        self._binv: list[float] = [b * iv for b, iv in zip(beta, self._invnic, strict=True)]

        # -- per-rank profile columns
        self.work: list[float] = [
            p.compute_time * profile.profile_speeds[p.rank] for p in profile.processes
        ]
        self.lam: list[float] = [
            (p.lam if options.use_lambda else 1.0) for p in profile.processes
        ]
        # Message groups per rank, recvs first (reference summation
        # order): tuples (is_send, peer, count, size).
        self.groups: list[list[tuple[bool, int, float, float]]] = []
        reach: list[dict[int, list[tuple[int, bool, float, float]]]] = [
            {} for _ in range(nprocs)
        ]
        for p in profile.processes:
            gs: list[tuple[bool, int, float, float]] = []
            for g in p.recvs:
                gs.append((False, g.peer, float(g.count), g.size_bytes))
            for g in p.sends:
                gs.append((True, g.peer, float(g.count), g.size_bytes))
            self.groups.append(gs)
            for g, (is_send, peer, count, size) in enumerate(gs):
                if peer != p.rank:
                    reach[peer].setdefault(p.rank, []).append((g, is_send, count, size))
        #: peer_groups[p] — the message-group terms a change at rank p
        #: reaches, and only those: one ``(r, records)`` per other rank r
        #: that has p as a peer (ascending r), *records* one ``(g,
        #: is_send, count, size)`` per group of r whose peer is p, g its
        #: index in ``groups[r]``.
        self.peer_groups: list[
            tuple[tuple[int, tuple[tuple[int, bool, float, float], ...]], ...]
        ] = [
            tuple((r, tuple(records)) for r, records in by_rank.items())
            for by_rank in reach
        ]

        # CSR columns of all message groups, rank-major and in group
        # order within a rank — the accumulation order of every backend.
        flat = [(r, g) for r in range(nprocs) for g in self.groups[r]]
        self._grp_rank: list[int] = [r for r, _ in flat]
        self._grp_peer: list[int] = [g[1] for _, g in flat]
        self._grp_send: list[bool] = [g[0] for _, g in flat]
        self._grp_count: list[float] = [g[2] for _, g in flat]
        self._grp_size: list[float] = [g[3] for _, g in flat]
        #: Lazily-built numpy mirrors of the columns (None until the
        #: vectorized batch kernel first runs).
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
        state.pop("_np_row_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

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
        if not self.options.cpu_availability:
            return [1.0] * self.nnodes
        curve = self.acpu_curve
        return [curve[j][k] for j, k in enumerate(counts)]

    def evaluate(self, mapping: TaskMapping) -> tuple[list[float], list[float], list[float]]:
        """Full evaluation: (R, C, acpu-by-node) lists.

        Always the scalar python path, so everything built on it — the
        incremental evaluator's rebinds in particular — is independent
        of the batch backend selection.
        """
        r_arr, c_arr, acpu, _ = self._evaluate_positions(self.positions(mapping))
        return r_arr, c_arr, acpu

    def _evaluate_positions(
        self, pos: list[int]
    ) -> tuple[list[float], list[float], list[float], list[list[float]]]:
        """(R, C, acpu-by-node, message-group terms per rank) at *pos*."""
        counts = [0] * self.nnodes
        for j in pos:
            counts[j] += 1
        acpu = self.acpu_by_node(counts)
        work, speed = self.work, self.speed
        r_arr = [work[i] / speed[pos[i]] / acpu[pos[i]] for i in range(self.nprocs)]
        if not self.options.communication or not self._grp_rank:
            return r_arr, [0.0] * self.nprocs, acpu, [[] for _ in range(self.nprocs)]
        terms = [self.comm_terms(i, pos, acpu) for i in range(self.nprocs)]
        lam = self.lam
        return r_arr, [left_fold(t) * lam[i] for i, t in enumerate(terms)], acpu, terms

    def execution_time(self, mapping: TaskMapping) -> float:
        """``S_M`` of one mapping (stateless, scalar path)."""
        r_arr, c_arr, _ = self.evaluate(mapping)
        return max(r + c for r, c in zip(r_arr, c_arr))

    # -- batched evaluation ----------------------------------------------
    def evaluate_many(self, mappings: Sequence[TaskMapping]) -> list[float]:
        """``S_M`` for a whole population of mappings in one sweep.

        The workhorse of population schedulers: GA generation scoring,
        portfolio restart seeding, and candidate scans submit their
        mappings here instead of looping.  Backend per
        :func:`active_backend`; both backends produce bit-identical
        energies, so callers never need to know which one served them.
        """
        if not mappings:
            return []
        if active_backend() == "numpy":
            return self._evaluate_many_numpy(mappings)
        out = []
        for mapping in mappings:
            r_arr, c_arr, _, _ = self._evaluate_positions(self.positions(mapping))
            out.append(max(r + c for r, c in zip(r_arr, c_arr)))
        return out

    def _np_cols(self) -> dict:
        """The numpy mirrors of the SoA columns, built on first use."""
        cols = self._np_cache
        if cols is None:
            n = self.nnodes
            work = np.asarray(self.work, dtype=float)
            speed = np.asarray(self.speed, dtype=float)
            grank = np.asarray(self._grp_rank, dtype=np.intp)
            gpeer = np.asarray(self._grp_peer, dtype=np.intp)
            gsend = np.asarray(self._grp_send, dtype=bool)
            gcount = np.asarray(self._grp_count, dtype=float)
            gsize = np.asarray(self._grp_size, dtype=float)
            a_src = np.asarray(self._a_src, dtype=float)
            a_dst = np.asarray(self._a_dst, dtype=float)
            a_net = np.asarray(self._a_net, dtype=float)
            beta = np.asarray(self._beta, dtype=float)
            cols = {
                "lam": np.asarray(self.lam, dtype=float),
                "ncpus": np.asarray(self._ncpus, dtype=float),
                "bg": np.asarray(self._bg, dtype=float),
                "a_src": a_src,
                "a_dst": a_dst,
                "a_net": a_net,
                "beta": beta,
                "binv": np.asarray(self._binv, dtype=float),
                "grank": grank,
                "gcount": gcount,
                "gsize": gsize,
                # R_i numerator table: work_i / speed_j, flat (P, n).
                "rt": (work[:, None] / speed[None, :]).ravel(),
                "col_n": np.arange(self.nprocs, dtype=np.intp) * n,
                # Gather selectors: which rank's position is the message
                # source/destination for each group (send: rank -> peer).
                "gsrc": np.where(gsend, grank, gpeer),
                "gdst": np.where(gsend, gpeer, grank),
            }
            self._np_cache = cols
        return cols

    def _np_rows(self, nbatch: int) -> tuple:
        """Per-batch-row index arrays, cached for the last batch size.

        ``row_n`` offsets each batch row into a ``(B, n)`` ravel;
        ``theta_idx`` scatters every message group to its owning
        ``(mapping, rank)`` cell of the ``theta`` bincount — both depend
        only on the batch size, so population loops reuse them.
        """
        cached = getattr(self, "_np_row_cache", None)
        if cached is not None and cached[0] == nbatch:
            return cached[1], cached[2]
        rows = np.arange(nbatch, dtype=np.intp)[:, None]
        row_n = rows * self.nnodes
        grank = self._np_cols()["grank"]
        theta_idx = (grank + rows * self.nprocs).ravel()
        self._np_row_cache = (nbatch, row_n, theta_idx)
        return row_n, theta_idx

    def _evaluate_many_numpy(self, mappings: Sequence[TaskMapping]) -> list[float]:
        """Vectorized batch kernel.

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
        row_n, theta_idx = self._np_rows(nbatch)
        flat_nodes = pos + row_n  # (B, P) indices into a (B, n) ravel
        if self.options.cpu_availability:
            counts = np.bincount(flat_nodes.ravel(), minlength=nbatch * n)
            # ACPU is only ever read at mapped nodes (rank positions and
            # message endpoints), so compute it sparsely on the (B, P)
            # grid: every gathered count is >= 1, which also rules the
            # count > 0 branch of the dense formula in (and division by
            # zero out).
            demand = counts.take(flat_nodes) + cols["bg"].take(pos)
            ncp = cols["ncpus"].take(pos)
            acpu_pos = np.where(demand > ncp, ncp / demand, 1.0)
            r_arr = cols["rt"].take(pos + cols["col_n"]) / acpu_pos
        else:
            # ACPU is identically 1.0; x / 1.0 == x, so skip the gather.
            acpu_pos = None
            r_arr = cols["rt"].take(pos + cols["col_n"])
        if not self.options.communication or not self._grp_rank:
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
                raise KeyError(
                    f"no latency data for pair ({self.node_ids[int(src[b, g])]!r}, "
                    f"{self.node_ids[int(dst[b, g])]!r})"
                )
        if self.options.load_adjusted_latency:
            tail = cols["gsize"] * cols["binv"].take(pair)
            tail += cols["a_net"].take(pair)
            if acpu_pos is not None:
                # Endpoint ACPU by gathering the (B, P) per-rank table —
                # cheaper than re-offsetting src/dst into the (B, n) ravel.
                lat = cols["a_src"].take(pair) / acpu_pos.take(cols["gsrc"], axis=1)
                lat += cols["a_dst"].take(pair) / acpu_pos.take(cols["gdst"], axis=1)
            else:
                lat = cols["a_src"].take(pair) + cols["a_dst"].take(pair)
            lat += tail
            lat *= cols["gcount"]
            weights = lat
        else:
            lat = cols["a_src"].take(pair) + cols["a_dst"].take(pair)
            lat += cols["a_net"].take(pair)
            sb = cols["gsize"] * cols["beta"].take(pair)
            lat += sb
            lat *= cols["gcount"]
            weights = lat
        theta = np.bincount(
            theta_idx,
            weights=weights.ravel(),
            minlength=nbatch * nprocs,
        ).reshape(nbatch, nprocs)
        theta *= cols["lam"]
        r_arr += theta
        return r_arr.max(axis=1).tolist()

    # -- scalar kernels for the delta path ------------------------------
    def _no_latency(self, s: int, d: int) -> KeyError:
        return KeyError(f"no latency data for pair ({self.node_ids[s]!r}, {self.node_ids[d]!r})")

    def comm_terms(self, rank: int, pos: list[int], acpu: list[float]) -> list[float]:
        """The message-group terms of one rank under (pos, acpu), in group order.

        One ``count * L(src, dst, size)`` per group of ``groups[rank]``:
        their left fold is ``Θ_i`` and ``λ_i`` times that is ``C_i``.
        This is the full-list form of the term expression;
        :meth:`moved_terms` holds the patch form beside it.
        """
        groups = self.groups[rank]
        n = self.nnodes
        comp = self._comp_flat
        binv = self._binv
        me = pos[rank]
        if self._missing_pairs:
            a_net = self._a_net
            for is_send, peer, _, _ in groups:
                s, d = (me, pos[peer]) if is_send else (pos[peer], me)
                if a_net[s * n + d] != a_net[s * n + d]:  # NaN check
                    raise self._no_latency(s, d)
        # The grouping below — endpoint terms first, then the load-
        # independent tail ``a_net + size * (beta*invnic)`` as one unit
        # (with the fused ``binv`` slope) — is the association the
        # vectorized backend replays; both paths must keep it for their
        # energies to stay bit-identical.
        terms = []
        if self.options.load_adjusted_latency:
            for is_send, peer, count, size in groups:
                if is_send:
                    s, d = me, pos[peer]
                else:
                    s, d = pos[peer], me
                k = s * n + d
                a_s, a_d, a_n, _ = comp[k]
                terms.append(count * (a_s / acpu[s] + a_d / acpu[d] + (a_n + size * binv[k])))
        else:
            for is_send, peer, count, size in groups:
                if is_send:
                    s, d = me, pos[peer]
                else:
                    s, d = pos[peer], me
                a_s, a_d, a_n, b = comp[s * n + d]
                terms.append(count * (a_s + a_d + a_n + size * b))
        return terms

    def moved_terms(
        self,
        src: Sequence[int],
        committed: list[list[float]],
        pos: list[int],
        acpu: list[float],
    ) -> list[tuple[int, list[float], float]]:
        """``(rank, terms, C_i)`` of every rank a change at the ranks *src* reaches.

        *src* are the ranks whose own node (or, under load-adjusted
        latencies, own ACPU) differs between the state the term lists
        *committed* were computed in and (pos, acpu): every term of
        theirs has a changed operand, so each gets a fresh
        :meth:`comm_terms`.  A rank that merely has one of them as a
        peer keeps a copy of its committed list in which only the
        entries of those peers (:attr:`peer_groups`) are recomputed —
        the patch form: the full-list form's expression on the same
        operands, so a patched list ``==`` a fresh one — and is
        re-folded in group order.  Nothing in *committed* is written.
        """
        # Plain loops, here and for the fold below: a comprehension's
        # frame and a call per rank are 1.5 us of a 14 us cg.A move.
        fresh: dict[int, list[float]] = {}
        for r in src:
            fresh[r] = self.comm_terms(r, pos, acpu)
        peer_groups = self.peer_groups
        n = self.nnodes
        if self._missing_pairs:
            a_net = self._a_net
            for p in src:
                there = pos[p]
                for r, records in peer_groups[p]:
                    if r not in fresh:
                        me = pos[r]
                        for _, is_send, _, _ in records:
                            s, d = (me, there) if is_send else (there, me)
                            if a_net[s * n + d] != a_net[s * n + d]:  # NaN check
                                raise self._no_latency(s, d)
        comp = self._comp_flat
        binv = self._binv
        load_adjusted = self.options.load_adjusted_latency
        patched: dict[int, list[float]] = {}
        for p in src:
            there = pos[p]
            for r, records in peer_groups[p]:
                if r in fresh:
                    continue
                terms = patched.get(r)
                if terms is None:
                    terms = patched[r] = committed[r].copy()
                me = pos[r]
                if load_adjusted:
                    for g, is_send, count, size in records:
                        if is_send:
                            s, d = me, there
                        else:
                            s, d = there, me
                        k = s * n + d
                        a_s, a_d, a_n, _ = comp[k]
                        terms[g] = count * (a_s / acpu[s] + a_d / acpu[d] + (a_n + size * binv[k]))
                else:
                    for g, is_send, count, size in records:
                        if is_send:
                            s, d = me, there
                        else:
                            s, d = there, me
                        a_s, a_d, a_n, b = comp[s * n + d]
                        terms[g] = count * (a_s + a_d + a_n + size * b)
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
        r_arr, c_arr, acpu, terms = ctx._evaluate_positions(pos)
        counts = [0] * ctx.nnodes
        for node in pos:
            counts[node] += 1
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
        return self._propose_moved(
            new_pos, [r for r in range(len(pos)) if new_pos[r] != pos[r]]
        )

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
        # on an ACPU-changed node — their R_i changes (eq. 5), and under
        # load-adjusted latencies so does their endpoint stretching.
        base = list(moved)
        if acpu_changed and sum(counts[n] for n in acpu_changed) > sum(
            new_pos[r] in acpu_changed for r in moved
        ):
            base += [
                r for r in range(ctx.nprocs) if new_pos[r] in acpu_changed and r not in moved
            ]
        # A message-group term is recomputed where an operand of it
        # changed and nowhere else: every term of the ranks in ``src``,
        # and of their peers the terms facing them.  Under no-load
        # latencies only relocations reach a term.
        changed: dict[int, tuple[float, float, float, list[float]]] = {}
        r_list, c_list, t_list = self._r, self._c, self._terms
        if ctx.options.communication:
            src = base if ctx.options.load_adjusted_latency else moved
            for r, terms, c_i in ctx.moved_terms(src, t_list, new_pos, acpu):
                r_i = ctx.comp_time(r, new_pos[r], acpu) if r in base else r_list[r]
                changed[r] = (r_i, c_i, r_i + c_i, terms)
        for r in base:
            if r not in changed:
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

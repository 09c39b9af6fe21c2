"""Migration cost models: what switching mappings costs.

Two models price a mapping diff for :class:`~repro.remap.remapper.
Remapper` through one interface — ``moves_from_context`` (per-rank
:class:`~repro.remap.plan.RankMove` records) and ``total_cost``:

* :class:`RemapCostModel`, the flat baseline, charges a constant
  ``per_task_s`` for every moved rank;
* :class:`MigrationCostModel` replaces that constant with the thing it
  abbreviates: each moved rank ships its checkpoint over the *actual*
  source->destination path, priced by the same calibrated ``L_c``
  latency components (``alpha_src + alpha_dst + alpha_net + size *
  beta``, load-adjusted) that the mapping evaluator uses — so migrating
  across the federation bottleneck costs what the bottleneck costs, and
  an intra-switch shuffle is nearly free.

Checkpoint sizes are derived from the application profile: the stored
profiles carry no explicit memory footprint, so the model estimates one
as a base image plus a fraction of the rank's profiled traffic volume
(communication-heavy ranks hold proportionally more live state).  Both
knobs are parameters.

Two equivalent paths produce its per-rank costs:

* :meth:`MigrationCostModel.moves` — the scalar reference, one
  :meth:`~repro.cluster.latency.LatencyModel.components` lookup per
  moved rank;
* :meth:`MigrationCostModel.moves_from_context` — the vectorized diff
  path reusing the struct-of-arrays columns of an existing
  :class:`~repro.core.fast_eval.EvaluationContext` (flat pair tables,
  ACPU curves), with no per-move object construction or dict lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import left_fold
from repro.cluster.latency import LatencyModel
from repro.core.fast_eval import EvaluationContext
from repro.core.mapping import TaskMapping
from repro.monitoring.snapshot import SystemSnapshot
from repro.profiling.profile import ApplicationProfile
from repro.remap.plan import RankMove

__all__ = ["MigrationCostModel", "RemapCostModel"]


@dataclass(frozen=True)
class RemapCostModel:
    """Flat cost of migrating application tasks between nodes.

    ``fixed_s`` covers coordination (quiesce, barrier, restart);
    ``per_task_s`` covers checkpoint + transfer + restore of one task's
    state, charged once per task whose assigned node changes.  The
    :class:`MigrationCostModel` replaces the flat ``per_task_s``
    constant with the actual checkpoint-over-link transfer time; this
    model remains the simple baseline (with ``safety_factor=1.0``:
    ``remap <=> savings > fixed_s + per_task_s * moved``).
    """

    fixed_s: float = 1.0
    per_task_s: float = 0.5

    def __post_init__(self) -> None:
        if self.fixed_s < 0 or self.per_task_s < 0:
            raise ValueError("remap costs must be >= 0")

    def moves_from_context(
        self, context: EvaluationContext | None, current: TaskMapping, candidate: TaskMapping
    ) -> tuple[RankMove, ...]:
        """Per-rank moves at the flat price; *context* (link tables) is not read."""
        if current.nprocs != candidate.nprocs:
            raise ValueError("mappings must place the same number of processes")
        pairs = zip(current.as_tuple(), candidate.as_tuple(), strict=True)
        return tuple(
            RankMove(rank, src, dst, 0.0, self.per_task_s)
            for rank, (src, dst) in enumerate(pairs)
            if src != dst
        )

    def total_cost(self, moves: tuple[RankMove, ...]) -> float:
        """Plan-wide migration cost; exactly 0.0 when nothing moves."""
        if not moves:
            return 0.0
        return self.fixed_s + self.per_task_s * len(moves)

    def cost(self, current: TaskMapping, candidate: TaskMapping) -> float:
        """Migration cost of switching from *current* to *candidate*."""
        return self.total_cost(self.moves_from_context(None, current, candidate))


@dataclass(frozen=True)
class MigrationCostModel:
    """Prices a mapping switch as per-rank checkpoint transfers.

    ``quiesce_s`` and ``restart_s`` are the fixed coordination costs of
    one remap (drain in-flight messages / barrier, then relaunch),
    charged once per plan that moves at least one rank.  A rank's
    checkpoint is ``checkpoint_base_bytes + checkpoint_traffic_fraction
    * bytes_sent`` of its profile.  With ``load_adjusted`` the transfer
    uses the load-stretched ``L_c`` (migrating off a loaded node pays
    that node's reduced CPU availability); otherwise the no-load path.
    """

    quiesce_s: float = 0.25
    restart_s: float = 0.25
    checkpoint_base_bytes: float = 32.0 * 1024 * 1024
    checkpoint_traffic_fraction: float = 0.05
    load_adjusted: bool = True

    def __post_init__(self) -> None:
        if self.quiesce_s < 0 or self.restart_s < 0:
            raise ValueError("fixed remap costs must be >= 0")
        if self.checkpoint_base_bytes < 0:
            raise ValueError("checkpoint_base_bytes must be >= 0")
        if self.checkpoint_traffic_fraction < 0:
            raise ValueError("checkpoint_traffic_fraction must be >= 0")

    @property
    def fixed_s(self) -> float:
        """The per-plan coordination cost (quiesce + restart)."""
        return self.quiesce_s + self.restart_s

    def checkpoint_bytes(self, profile: ApplicationProfile) -> tuple[float, ...]:
        """Estimated checkpoint size per rank, in rank order."""
        return tuple(
            self.checkpoint_base_bytes + self.checkpoint_traffic_fraction * p.bytes_sent
            for p in profile.processes
        )

    # -- scalar reference ------------------------------------------------
    def moves(
        self,
        profile: ApplicationProfile,
        latency_model: LatencyModel,
        current: TaskMapping,
        candidate: TaskMapping,
        *,
        snapshot: SystemSnapshot | None = None,
    ) -> tuple[RankMove, ...]:
        """Per-rank migrations of switching *current* -> *candidate*.

        The scalar reference: one latency-component lookup per moved
        rank.  *snapshot* supplies the endpoint ACPU / NIC loads for the
        load-adjusted transfer; without one (or with ``load_adjusted``
        off) the no-load latency is used.
        """
        if current.nprocs != candidate.nprocs:
            raise ValueError("mappings must place the same number of processes")
        if current.nprocs != profile.nprocs:
            raise ValueError("mappings must place the profile's process count")
        ckpt = self.checkpoint_bytes(profile)
        out: list[RankMove] = []
        for rank in range(current.nprocs):
            src, dst = current.node_of(rank), candidate.node_of(rank)
            if src == dst:
                continue
            pc = latency_model.components(src, dst)
            size = ckpt[rank]
            if self.load_adjusted and snapshot is not None:
                seconds = pc.adjusted(
                    size,
                    acpu_src=snapshot.acpu(src),
                    acpu_dst=snapshot.acpu(dst),
                    nic_src=snapshot.nic_load(src),
                    nic_dst=snapshot.nic_load(dst),
                )
            else:
                seconds = pc.no_load(size)
            out.append(RankMove(rank, src, dst, size, seconds))
        return tuple(out)

    # -- vectorized diff path --------------------------------------------
    def moves_from_context(
        self,
        context: EvaluationContext,
        current: TaskMapping,
        candidate: TaskMapping,
    ) -> tuple[RankMove, ...]:
        """The vectorized diff path over fast-eval's flat columns.

        Reuses the struct-of-arrays tables an
        :class:`~repro.core.fast_eval.EvaluationContext` already holds —
        position vectors for the diff, flat pair tables for the link
        components, the ACPU curve for endpoint stretching — so one
        remap evaluation does no per-move ``components()`` lookups.
        With ``load_adjusted`` on, the load treatment follows the
        *context's* evaluation options (``cpu_availability`` /
        ``load_adjusted_latency``), matching the snapshot the context
        was frozen from; with it off, transfers use the no-load tables.
        """
        p_cur = context.positions(current)
        p_cand = context.positions(candidate)
        a_src, a_dst, a_net, beta, binv, acpu1 = context.migration_tables()
        if not self.load_adjusted:
            # No-load pricing: raw beta slope, unit endpoint ACPU.
            binv = beta
            acpu1 = [1.0] * context.nnodes
        ckpt = self.checkpoint_bytes(context.profile)
        node_ids = context.node_ids
        n = context.nnodes
        out: list[RankMove] = []
        for rank, (s, d) in enumerate(zip(p_cur, p_cand, strict=True)):
            if s == d:
                continue
            idx = s * n + d
            a_n = a_net[idx]
            if a_n != a_n:  # NaN: pair absent from the latency model
                raise ValueError(
                    f"no latency data for pair ({node_ids[s]!r}, {node_ids[d]!r})"
                )
            size = ckpt[rank]
            seconds = (
                a_src[idx] / acpu1[s]
                + a_dst[idx] / acpu1[d]
                + a_n
                + size * binv[idx]
            )
            out.append(RankMove(rank, node_ids[s], node_ids[d], size, seconds))
        return tuple(out)

    # -- totals ----------------------------------------------------------
    def total_cost(self, moves: tuple[RankMove, ...]) -> float:
        """Plan-wide migration cost; exactly 0.0 when nothing moves."""
        if not moves:
            return 0.0
        return self.fixed_s + left_fold(m.seconds for m in moves)

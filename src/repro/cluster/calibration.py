"""Off-line calibration of the cluster latency model.

The paper's system-dedicated infrastructure runs, once per cluster, a
set of end-to-end latency benchmarks between node pairs and fits the
latency model from them.  Naively this is ``O(N^2)`` *sequential*
benchmark runs; CBES reduces the wall-clock cost to ``O(N)`` rounds by
scheduling the pair benchmarks in *cliques* — sets of pairs with no node
in common — that can run concurrently without perturbing one another
(the role of the paper's NWS "clique control" scripts).

Here the "measurement" of one pair is the analytic fabric latency plus
seeded multiplicative measurement noise; the per-pair components are
recovered by an ordinary least-squares fit over a sweep of message
sizes, exactly the way a real calibration would fit ``alpha + beta *
size`` to ping-pong timings.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro._rng import Rng
from repro._util import check_positive, spawn_rng
from repro.cluster.latency import LatencyModel, PathComponents
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node

__all__ = ["CalibrationReport", "schedule_cliques", "Calibrator"]

#: Default message sizes (bytes) swept by the pairwise benchmark.
DEFAULT_SIZES: tuple[int, ...] = (64, 512, 4096, 32768, 131072, 524288)


def schedule_cliques(hosts: Sequence[str]) -> list[list[tuple[str, str]]]:
    """Partition all unordered host pairs into concurrency-safe rounds.

    Uses the round-robin tournament (circle) method: with ``n`` hosts it
    yields ``n - 1`` rounds (``n`` if odd) of ``n // 2`` pairs, and no
    host appears twice within a round, so all benchmarks of a round can
    run in parallel without interfering.  This is the ``O(N)`` rounds
    property the paper relies on.
    """
    roster: list[str | None] = list(dict.fromkeys(hosts))
    if len(roster) < 2:
        raise ValueError("need at least two hosts to calibrate")
    if len(roster) % 2 == 1:
        roster.append(None)  # bye
    n = len(roster)
    rounds: list[list[tuple[str, str]]] = []
    order = list(roster)
    for _ in range(n - 1):
        pairs: list[tuple[str, str]] = []
        for i in range(n // 2):
            a, b = order[i], order[n - 1 - i]
            if a is not None and b is not None:
                pairs.append((a, b) if a <= b else (b, a))
        rounds.append(pairs)
        order = [order[0]] + [order[-1]] + order[1:-1]
    return rounds


@dataclass
class CalibrationReport:
    """Outcome of a calibration run."""

    model: LatencyModel
    rounds: int
    pair_benchmarks: int
    sequential_benchmarks: int
    sizes: tuple[int, ...]
    max_fit_residual: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def parallel_speedup(self) -> float:
        """Wall-clock rounds saved by clique scheduling (>= 1)."""
        return self.sequential_benchmarks / max(self.rounds, 1)


class Calibrator:
    """Runs the simulated off-line calibration for a cluster fabric.

    Parameters
    ----------
    fabric, nodes:
        The physical system being calibrated.
    noise:
        Relative standard deviation of the simulated timing noise per
        measurement (default 1 %); set to 0 for an exact fit.
    repetitions:
        Ping-pong repetitions averaged per (pair, size) sample.
    """

    def __init__(
        self,
        fabric: NetworkFabric,
        nodes: Mapping[str, Node],
        *,
        noise: float = 0.01,
        repetitions: int = 5,
        seed: int = 0,
    ) -> None:
        fabric.validate()
        if not 0 <= noise < float("inf"):  # NaN too: it would calibrate NaN latencies
            raise ValueError(f"noise must be a finite number >= 0, got {noise!r}")
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self._fabric = fabric
        self._nodes = dict(nodes)
        self._noise = float(noise)
        self._repetitions = int(repetitions)
        self._seed = int(seed)

    def _measure(self, truth_components: PathComponents, size: int, rng: Rng) -> float:
        """One simulated ping-pong sample: truth plus measurement noise."""
        truth = truth_components.no_load(size)
        if self._noise == 0.0:
            return truth
        total = 0.0  # folded left to right: never builtin sum (see _util.left_fold)
        for x in rng.normal(1.0, self._noise, size=self._repetitions):
            total += abs(truth * x)
        return total / self._repetitions

    def _fit_pair(self, src: str, dst: str, sizes: Sequence[int]) -> tuple[PathComponents, float]:
        """Weighted least-squares fit of ``alpha + beta * size`` for one pair.

        Rows are weighted by ``1 / y`` so the fit minimises *relative*
        error; without this the large-message samples (milliseconds)
        would swamp the small-message alpha (tens of microseconds).
        """
        rng = spawn_rng(self._seed, "calibrate", src, dst)
        truth = LatencyModel.analytic_components(self._fabric, self._nodes, src, dst)
        xs = [float(s) for s in sizes]
        ys = [self._measure(truth, int(s), rng) for s in sizes]
        # Normal equations of min ||(alpha + beta*x - y) / y||^2: each row
        # of the design is scaled by w = 1/y, giving a 2x2 system solved
        # by Cramer's rule (the sweep spans ~4 decades of size, which
        # float64 handles with digits to spare at this problem size).
        # The five sums fold left to right in one pass: never builtin
        # sum, which CPython >= 3.12 compensates (see _util.left_fold).
        s11 = s12 = s22 = b1 = b2 = 0.0
        for x, y in zip(xs, ys):
            w = 1.0 / y
            ww = w * w
            s11 += ww
            s12 += ww * x
            s22 += ww * x * x
            b1 += w
            b2 += w * x
        det = s11 * s22 - s12 * s12
        alpha = (b1 * s22 - b2 * s12) / det
        beta = (s11 * b2 - s12 * b1) / det
        alpha = max(alpha, 0.0)
        beta = max(beta, 0.0)
        residual = max(abs((alpha + beta * x - y) / y) for x, y in zip(xs, ys))
        # The fit can only observe the total alpha; split it between the
        # endpoints proportionally to their NIC overheads so that the
        # load adjustment applies to the right endpoint share.
        o_src = self._nodes[src].nic.send_overhead_s
        o_dst = self._nodes[dst].nic.send_overhead_s
        endpoint = min(alpha, o_src + o_dst)
        share_src = endpoint * o_src / (o_src + o_dst)
        share_dst = endpoint * o_dst / (o_src + o_dst)
        comps = PathComponents(
            alpha_src=share_src, alpha_dst=share_dst, alpha_net=alpha - endpoint, beta=beta
        )
        return comps, residual

    def calibrate(self, sizes: Sequence[int] = DEFAULT_SIZES) -> CalibrationReport:
        """Run the full clique-scheduled calibration and fit the model."""
        for s in sizes:
            check_positive(s, "message size")
        hosts = sorted(self._fabric.hosts)
        rounds = schedule_cliques(hosts)
        comps: dict[tuple[str, str], PathComponents] = {}
        worst = 0.0
        pair_count = 0
        for clique in rounds:
            # All pairs in a clique run concurrently; they share no node,
            # so their measurements are independent by construction.
            for a, b in clique:
                pair_count += 1
                fitted, residual = self._fit_pair(a, b, sizes)
                worst = max(worst, residual)
                comps[(a, b)] = fitted
                # The reverse direction swaps the endpoint components.
                comps[(b, a)] = PathComponents(
                    alpha_src=fitted.alpha_dst,
                    alpha_dst=fitted.alpha_src,
                    alpha_net=fitted.alpha_net,
                    beta=fitted.beta,
                )
        report = CalibrationReport(
            model=LatencyModel(comps),
            rounds=len(rounds),
            pair_benchmarks=pair_count,
            sequential_benchmarks=pair_count,
            sizes=tuple(int(s) for s in sizes),
            max_fit_residual=worst,
        )
        report.notes.append(
            f"clique scheduling: {pair_count} pair benchmarks in {len(rounds)} rounds "
            f"({report.parallel_speedup:.1f}x wall-clock reduction)"
        )
        return report

"""Runtime network monitoring (the NWS MPI end-to-end latency sensor).

The paper's Centurion prototype extends NWS with *"an MPI end-to-end
latency benchmark"* and *"a network connection availability sensor"*,
run periodically in non-interfering cliques.  This module is that
runtime side of the network picture (the off-line side is
:mod:`repro.cluster.calibration`):

* :class:`LatencySensor` measures one node pair's current small-message
  latency — the true load-adjusted value plus measurement noise;
* :class:`NetworkMonitor` cycles through the calibration clique rounds
  (one round per poll, so each poll touches every node at most once),
  feeds the measurements into per-pair forecasters, and reports each
  pair's *inflation* over its calibrated no-load latency — a live view
  of network availability.
"""

from __future__ import annotations

from repro._util import check_positive, spawn_rng
from repro.cluster.calibration import schedule_cliques
from repro.cluster.cluster import Cluster
from repro.cluster.latency import LOCAL, LatencyModel
from repro.monitoring.forecasting import Forecaster, make_forecaster

__all__ = ["LatencySensor", "NetworkMonitor"]

#: Message size used by the periodic latency probe (small, like NWS).
PROBE_BYTES = 1024.0


class LatencySensor:
    """Measures the current end-to-end latency of one node pair."""

    def __init__(self, cluster: Cluster, src: str, dst: str, *, noise: float = 0.02, seed: int = 0):
        if noise < 0:
            raise ValueError("noise must be >= 0")
        self._cluster = cluster
        self._exact = (
            LOCAL
            if src == dst
            else LatencyModel.analytic_components(cluster.fabric, cluster.nodes, src, dst)
        )
        self.src = src
        self.dst = dst
        self._noise = noise
        self._rng = spawn_rng(seed, "net-sensor", src, dst)

    def read(self, size_bytes: float = PROBE_BYTES) -> float:
        """One probe: the true load-adjusted latency, observed noisily."""
        check_positive(size_bytes, "size_bytes")
        src_node = self._cluster.node(self.src)
        dst_node = self._cluster.node(self.dst)
        truth = self._exact.adjusted(
            size_bytes,
            acpu_src=src_node.cpu_availability,
            acpu_dst=dst_node.cpu_availability,
            nic_src=src_node.nic_load,
            nic_dst=dst_node.nic_load,
        )
        if self._noise == 0.0:
            return truth
        return abs(truth * (1.0 + float(self._rng.normal(0.0, self._noise))))


class NetworkMonitor:
    """Periodic clique-scheduled latency sensing with forecasting.

    One ``poll()`` runs a single clique round (every node participates
    in at most one probe), so a full sweep of all pairs takes ``O(N)``
    polls — the monitoring-time analogue of the calibration's wall-clock
    argument.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        forecaster: str = "last-value",
        sensor_noise: float = 0.02,
        seed: int = 0,
    ) -> None:
        if not cluster.is_calibrated:
            raise RuntimeError("network monitoring requires a calibrated cluster")
        self._cluster = cluster
        self._rounds = schedule_cliques(cluster.node_ids())
        self._round_index = 0
        self._kind = forecaster
        self._sensors: dict[tuple[str, str], LatencySensor] = {}
        self._forecasters: dict[tuple[str, str], Forecaster] = {}
        self._noise = sensor_noise
        self._seed = seed
        self._polls = 0

    @property
    def polls(self) -> int:
        return self._polls

    @property
    def rounds_per_sweep(self) -> int:
        """Polls needed to touch every node pair once."""
        return len(self._rounds)

    def poll(self, rounds: int = 1) -> None:
        """Probe the next *rounds* clique rounds."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        for _ in range(rounds):
            for pair in self._rounds[self._round_index]:
                sensor = self._sensors.get(pair)
                if sensor is None:
                    sensor = LatencySensor(
                        self._cluster, *pair, noise=self._noise, seed=self._seed
                    )
                    self._sensors[pair] = sensor
                    self._forecasters[pair] = make_forecaster(self._kind)
                self._forecasters[pair].update(sensor.read())
            self._round_index = (self._round_index + 1) % len(self._rounds)
            self._polls += 1

    def sweep(self) -> None:
        """Probe every pair once (one full set of clique rounds)."""
        self.poll(rounds=len(self._rounds))

    # -- queries ------------------------------------------------------------
    def latency(self, a: str, b: str) -> float:
        """Forecast current latency of an unordered pair (seconds)."""
        pair = (a, b) if a <= b else (b, a)
        forecaster = self._forecasters.get(pair)
        if forecaster is None or forecaster.observations == 0:
            raise KeyError(f"pair {pair} has not been probed yet")
        return forecaster.forecast()

    def inflation(self, a: str, b: str) -> float:
        """Current latency over the calibrated no-load value (>= ~1)."""
        pair = (a, b) if a <= b else (b, a)
        no_load = self._cluster.latency_model.no_load(pair[0], pair[1], PROBE_BYTES)
        return self.latency(*pair) / no_load

    def hotspots(self, *, threshold: float = 1.3) -> list[tuple[str, str, float]]:
        """Pairs whose current latency exceeds *threshold* x no-load.

        The network-availability picture the paper's connection sensor
        provides: which parts of the fabric are currently degraded.
        """
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        found = []
        for pair, forecaster in self._forecasters.items():
            if forecaster.observations == 0:
                continue
            ratio = self.inflation(*pair)
            if ratio > threshold:
                found.append((pair[0], pair[1], ratio))
        return sorted(found, key=lambda item: -item[2])

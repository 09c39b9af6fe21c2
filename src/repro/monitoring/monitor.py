"""The system monitoring daemon: periodic sensing plus forecasting.

``SystemMonitor`` plays the role of the paper's monitoring daemons: it
polls every node's CPU and NIC sensors, feeds the measurements into
per-node forecasters, and answers the core module's on-demand snapshot
requests with the forecast (Centurion/NWS style) or the latest value
(Orange Grove style), depending on the forecaster it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.monitoring.forecasting import Forecaster, make_forecaster
from repro.monitoring.sensors import CpuSensor, NicSensor
from repro.monitoring.snapshot import NodeState, SystemSnapshot

__all__ = ["SystemMonitor"]


@dataclass
class _NodeChannels:
    cpu_sensor: CpuSensor
    nic_sensor: NicSensor
    cpu_forecaster: Forecaster
    nic_forecaster: Forecaster


class SystemMonitor:
    """Polls node sensors and serves availability snapshots.

    Parameters
    ----------
    cluster:
        The cluster being monitored.
    forecaster:
        Forecaster kind (see :func:`~repro.monitoring.forecasting.make_forecaster`).
        ``"last-value"`` reproduces the Orange Grove prototype,
        ``"adaptive"`` the NWS-based Centurion prototype.
    sensor_noise:
        Measurement noise sigma of the sensors.
    period_s:
        Nominal polling period; only used to advance the snapshot
        timestamp per poll.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        forecaster: str = "last-value",
        sensor_noise: float = 0.01,
        period_s: float = 10.0,
        seed: int = 0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        self._cluster = cluster
        self._period = float(period_s)
        self._now = 0.0
        self._polls = 0
        self._channels: dict[str, _NodeChannels] = {}
        for nid, node in cluster.nodes.items():
            self._channels[nid] = _NodeChannels(
                cpu_sensor=CpuSensor(node, noise=sensor_noise, seed=seed),
                nic_sensor=NicSensor(node, noise=sensor_noise, seed=seed),
                cpu_forecaster=make_forecaster(forecaster),
                nic_forecaster=make_forecaster(forecaster),
            )

    @property
    def polls(self) -> int:
        return self._polls

    def poll(self, rounds: int = 1) -> None:
        """Run *rounds* monitoring periods: sense every node once each."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        for _ in range(rounds):
            for ch in self._channels.values():
                ch.cpu_forecaster.update(ch.cpu_sensor.read())
                ch.nic_forecaster.update(ch.nic_sensor.read())
            self._now += self._period
            self._polls += 1

    def snapshot(self) -> SystemSnapshot:
        """The monitor's current belief about system resource state.

        Requires at least one completed poll, like the real service
        (prior to any invocation the infrastructure must be running).
        """
        if self._polls == 0:
            raise RuntimeError("monitor has no measurements; call poll() first")
        states = {}
        for nid, ch in self._channels.items():
            nic = min(max(ch.nic_forecaster.forecast(), 0.0), 1.0)
            cpu = max(ch.cpu_forecaster.forecast(), 0.0)
            states[nid] = NodeState(background_load=cpu, nic_load=nic)
        return SystemSnapshot(
            timestamp=self._now,
            states=states,
            ncpus={nid: n.ncpus for nid, n in self._cluster.nodes.items()},
        )

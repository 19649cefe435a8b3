"""End-to-end S-MAC + AODV run (the Fig. 7(b) baseline harness)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mac.base import SENSOR_RANGE_M, SIDE_M, build_cluster_phy
from ..mac.smac import SmacNetwork, SmacParams
from ..radio.packet import DEFAULT_SIZES
from ..sim.kernel import Simulator
from ..topology.cluster import Cluster
from ..topology.deployment import Deployment, uniform_square
from ..traffic.cbr import attach_cbr_sources

__all__ = ["SmacSimConfig", "SmacSimResult", "run_smac_simulation"]


@dataclass(frozen=True)
class SmacSimConfig:
    n_sensors: int = 30
    rate_bps: float = 7.0  # per-sensor; total offered = n * rate
    duty_cycle: float = 1.0
    duration: float = 100.0
    warmup: float = 10.0
    seed: int = 0
    frame_length: float = 1.0


@dataclass
class SmacSimResult:
    config: SmacSimConfig
    net: SmacNetwork
    elapsed: float
    packets_generated: int
    packets_delivered: int
    control_frames: int
    active_fraction: np.ndarray

    @property
    def throughput_bps(self) -> float:
        span = self.elapsed - self.config.warmup
        if span <= 0:
            return 0.0
        return self._delivered_after_warmup * DEFAULT_SIZES.data / span

    @property
    def _delivered_after_warmup(self) -> int:
        return sum(
            1 for p in self.net.sink.delivered if p.created >= self.config.warmup
        )

    @property
    def offered_bps(self) -> float:
        return self.config.rate_bps * self.config.n_sensors

    @property
    def delivery_ratio(self) -> float:
        if self.packets_generated == 0:
            return 1.0
        return self.packets_delivered / self.packets_generated


def run_smac_simulation(
    config: SmacSimConfig = SmacSimConfig(),
    deployment: Deployment | None = None,
) -> SmacSimResult:
    """Run S-MAC + AODV over the same PHY the polling MAC uses."""
    sim = Simulator()
    dep = deployment or uniform_square(
        config.n_sensors,
        seed=config.seed,
        side=SIDE_M,
        comm_range=SENSOR_RANGE_M,
    )
    cluster = Cluster.from_deployment(dep)
    phy = build_cluster_phy(
        sim,
        cluster,
        sensor_range_m=SENSOR_RANGE_M,
        # The baseline is a homogeneous network: the sink has sensor-grade
        # power (AODV assumes symmetric links; the polling system is what
        # exploits the heterogeneous high-power head).
        homogeneous_head=True,
    )
    params = SmacParams(
        frame_length=config.frame_length, duty_cycle=config.duty_cycle
    )
    net = SmacNetwork(phy, params=params, seed=config.seed)
    sources = attach_cbr_sources(
        sim,
        net.sensors,
        rate_bps=config.rate_bps,
        seed=config.seed,
    )
    net.start()
    sim.run(until=config.duration)
    phy.finalize()
    return SmacSimResult(
        config=config,
        net=net,
        elapsed=sim.now,
        packets_generated=net.packets_generated,
        packets_delivered=net.packets_delivered,
        control_frames=net.control_overhead(),
        active_fraction=phy.sensor_active_fraction(),
    )

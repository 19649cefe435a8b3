"""Shared MAC plumbing: node stacks, PHY indexing, timing parameters.

PHY node indexing convention: sensors occupy medium indices ``0..n-1`` in
cluster order; the cluster head is medium index ``n``.  MAC code translates
between the scheduling layer's :data:`repro.topology.HEAD` (= -1) and the
PHY index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..interference.physical import PhysicalModelOracle
from ..radio.channel import RX_SENSITIVITY_W, RadioMedium
from ..radio.packet import FrameSizes
from ..radio.propagation import TwoRayGround
from ..radio.transceiver import Transceiver
from ..sim.kernel import Simulator
from ..sim.trace import Tracer
from ..sim.units import transmission_time
from ..topology.cluster import HEAD, Cluster
from ..topology.deployment import SENSOR_RANGE_M, SIDE_M
from ..topology.recluster import discovered_cluster

__all__ = [
    "MacTimings",
    "ClusterPhy",
    "build_cluster_phy",
    "sensor_power_for_range",
    "phy_truth_oracle",
    "geometric_oracle",
    "GROUND_SENSOR_PROPAGATION",
    "SENSOR_RANGE_M",
    "SIDE_M",
]

# Ground-level sensor nodes have antennas centimeters off the soil; at
# 914 MHz and 0.3 m heights the two-ray crossover is ~3.5 m, so in-cluster
# links live in the 4th-power regime.  This is what makes spatial reuse
# (the paper's Fig. 2 concurrency) physically possible inside a cluster a
# few hop-lengths across: interference from across the cluster falls off
# much faster than the wanted short-link signal.
GROUND_SENSOR_PROPAGATION = TwoRayGround(ht=0.3, hr=0.3)


@dataclass(frozen=True)
class MacTimings:
    """Guard/turnaround/preamble timings shared by the slotted MACs (s).

    ``preamble`` models the PHY synchronization header every frame carries
    (ns-2 charges a PLCP-style preamble per frame too); cheap sensor radios
    at 200 kbps need a substantial one, and it is pure dead air as far as
    the schedule is concerned.
    """

    turnaround: float = 250e-6  # rx->tx switch after hearing a poll
    guard: float = 250e-6  # slack at the end of each slot
    preamble: float = 500e-6  # PHY preamble per frame (poll and data alike)

    def poll_slot_time(self, bitrate: float, sizes: FrameSizes, payload_bytes: int) -> float:
        """One polling slot: poll broadcast + turnaround + payload + guard."""
        return (
            self.preamble
            + transmission_time(sizes.poll, bitrate)
            + self.turnaround
            + self.preamble
            + transmission_time(payload_bytes, bitrate)
            + self.guard
        )


@dataclass
class ClusterPhy:
    """The PHY stack of one cluster: medium + a transceiver per node.

    ``index_map`` (optional) maps local indices (0..n-1 sensors, n = head)
    to medium indices when several clusters share one
    :class:`~repro.radio.channel.RadioMedium` (Sec. V-G multi-cluster
    operation).  Without it, local and medium indices coincide.
    """

    sim: Simulator
    cluster: Cluster
    medium: RadioMedium
    transceivers: list[Transceiver]  # local index 0..n-1 sensors, n = head
    index_map: list[int] | None = None

    @property
    def tracer(self) -> Tracer:
        """The medium's per-kind PHY event counts."""
        return self.medium.tracer

    @property
    def n_sensors(self) -> int:
        return self.cluster.n_sensors

    @property
    def head_index(self) -> int:
        return self.n_sensors

    def phy_index(self, node: int) -> int:
        """Scheduler node id (HEAD = -1) -> medium index."""
        local = self.head_index if node == HEAD else node
        if self.index_map is not None:
            return self.index_map[local]
        return local

    def node_id(self, phy_index: int) -> int:
        """Medium index -> scheduler node id (single-cluster layout only)."""
        if self.index_map is not None:
            local = self.index_map.index(phy_index)
        else:
            local = phy_index
        return HEAD if local == self.head_index else local

    def trx(self, node: int) -> Transceiver:
        local = self.head_index if node == HEAD else node
        return self.transceivers[local]

    def finalize(self) -> None:
        for trx in self.transceivers:
            trx.finalize()

    def sensor_active_fraction(self) -> np.ndarray:
        """Per-sensor fraction of elapsed time spent awake (Fig. 7a metric)."""
        elapsed = self.sim.now
        if elapsed <= 0:
            return np.zeros(self.n_sensors)
        return np.array(
            [
                self.transceivers[i].meter.active_time_s() / elapsed
                for i in range(self.n_sensors)
            ]
        )


def sensor_power_for_range(propagation, range_m: float) -> float:
    """Transmit power that reaches exactly *range_m* at the sensitivity."""
    if range_m <= 0:
        raise ValueError(f"range must be positive, got {range_m}")
    return RX_SENSITIVITY_W / propagation.gain(range_m)


def _tx_power(
    cluster: Cluster, prop, sensor_range_m: float, homogeneous_head: bool = False
) -> np.ndarray:
    """Per-radio transmit power of a geometric cluster, head last.

    Sensors reach exactly *sensor_range_m*.  The head covers the farthest
    member (or the sensor range, if larger) with a 4x (6 dB) margin,
    unless *homogeneous_head* gives it sensor power.
    """
    n = cluster.n_sensors
    sensor_power = sensor_power_for_range(prop, sensor_range_m)
    tx_power = np.full(n + 1, sensor_power)
    if not homogeneous_head:
        diffs = cluster.positions - cluster.head_position
        max_dist = float(np.sqrt((diffs**2).sum(axis=1)).max()) if n else 1.0
        tx_power[n] = 4.0 * sensor_power_for_range(prop, max(max_dist, sensor_range_m))
    return tx_power


def phy_truth_oracle(phy: ClusterPhy, max_group_size: int = 2) -> PhysicalModelOracle:
    """The oracle matching the medium's actual decode rule exactly.

    ``min(signal) >= sensitivity`` is folded in by raising the effective
    noise floor to ``sensitivity / beta`` (conservative under interference,
    never optimistic), so a link the oracle approves always decodes on a
    quiet channel — the property the Table-1 algorithm needs.
    """
    medium = phy.medium
    effective_noise = max(medium.noise, medium.rx_sensitivity / medium.beta)
    power = medium.rx_power
    if phy.index_map is not None:
        # Shared-medium operation: restrict to this cluster's nodes (local
        # layout: sensors then head).  Other clusters' interference is
        # invisible to the head — exactly the Sec. V-G problem the
        # coordination mechanisms exist to solve.
        idx = np.asarray(phy.index_map)
        power = power[np.ix_(idx, idx)]
    return PhysicalModelOracle(
        power=power,
        beta=medium.beta,
        noise=effective_noise,
        max_group_size=max_group_size,
    )


def geometric_oracle(
    cluster: Cluster,
    sensor_range_m: float = 60.0,
    propagation=None,
    max_group_size: int = 2,
):
    """A physical-model oracle for a geometric cluster, no run required.

    Builds the cluster's PHY (:func:`build_cluster_phy`) on a throwaway
    simulator and reads it exactly as the MAC does, so the schedule-level
    experiments and the event-driven MAC plan from one radio.  Returns
    ``(oracle, discovered_cluster)``: :func:`phy_truth_oracle` and the
    hearing graph :func:`~repro.topology.recluster.discovered_cluster`
    reads off the medium.
    """
    phy = build_cluster_phy(Simulator(), cluster, sensor_range_m, propagation)
    return phy_truth_oracle(phy, max_group_size), discovered_cluster(phy)


def build_cluster_phy(
    sim: Simulator,
    cluster: Cluster,
    sensor_range_m: float = 60.0,
    propagation=None,
    frame_error_rate: float = 0.0,
    error_seed: int = 0,
    homogeneous_head: bool = False,
) -> ClusterPhy:
    """Assemble medium + transceivers for a geometric cluster.

    Sensor transmit power is derived from *sensor_range_m* under the chosen
    propagation model (two-ray ground by default, matching Sec. VI); the
    head's power is sized to cover the farthest sensor with a 6 dB margin,
    realizing "the message sent by a cluster head can be received by all
    sensors in the cluster".

    ``homogeneous_head`` gives the head sensor-level power instead — used
    by the S-MAC baseline, which models a conventional homogeneous network
    (a high-power sink would also create asymmetric links that break AODV's
    symmetric-link assumption).
    """
    if cluster.positions is None or cluster.head_position is None:
        raise ValueError("DES simulation needs a geometric cluster (positions)")
    prop = propagation or GROUND_SENSOR_PROPAGATION
    positions = np.vstack(
        [cluster.positions, cluster.head_position[np.newaxis, :]]
    )
    n = cluster.n_sensors
    medium = RadioMedium(
        sim=sim,
        positions=positions,
        tx_power_w=_tx_power(cluster, prop, sensor_range_m, homogeneous_head),
        propagation=prop,
        frame_error_rate=frame_error_rate,
        error_seed=error_seed,
    )
    transceivers = [Transceiver(sim, medium, i) for i in range(n + 1)]
    return ClusterPhy(sim=sim, cluster=cluster, medium=medium, transceivers=transceivers)

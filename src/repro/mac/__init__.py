"""MAC protocols over the discrete-event PHY."""

from .base import (
    GROUND_SENSOR_PROPAGATION,
    SENSOR_RANGE_M,
    SIDE_M,
    ClusterPhy,
    MacTimings,
    build_cluster_phy,
    geometric_oracle,
    phy_truth_oracle,
    sensor_power_for_range,
)
from .discovery import DiscoveryOutcome, DiscoveryProtocol
from .pollmac import (
    AppPacket,
    CycleStats,
    PollingClusterMac,
    PollingSensorAgent,
    Replan,
)

__all__ = [
    "ClusterPhy",
    "MacTimings",
    "build_cluster_phy",
    "geometric_oracle",
    "GROUND_SENSOR_PROPAGATION",
    "SENSOR_RANGE_M",
    "SIDE_M",
    "sensor_power_for_range",
    "PollingClusterMac",
    "PollingSensorAgent",
    "AppPacket",
    "CycleStats",
    "Replan",
    "phy_truth_oracle",
    "DiscoveryProtocol",
    "DiscoveryOutcome",
]

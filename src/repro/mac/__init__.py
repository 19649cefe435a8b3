"""MAC protocols over the discrete-event PHY."""

from .base import (
    GROUND_SENSOR_PROPAGATION,
    ClusterPhy,
    MacTimings,
    build_cluster_phy,
    geometric_oracle,
    sensor_power_for_range,
)
from .discovery import DiscoveryOutcome, DiscoveryProtocol
from .pollmac import (
    AppPacket,
    CycleStats,
    PollingClusterMac,
    PollingSensorAgent,
    PollInstruction,
    Replan,
    phy_truth_oracle,
)

__all__ = [
    "ClusterPhy",
    "MacTimings",
    "build_cluster_phy",
    "geometric_oracle",
    "GROUND_SENSOR_PROPAGATION",
    "sensor_power_for_range",
    "PollingClusterMac",
    "PollingSensorAgent",
    "PollInstruction",
    "AppPacket",
    "CycleStats",
    "Replan",
    "phy_truth_oracle",
    "DiscoveryProtocol",
    "DiscoveryOutcome",
]

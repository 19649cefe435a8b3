"""Whole-network assembly: cluster simulations, multi-cluster coordination."""

from .cluster_sim import (
    PollingSimConfig,
    PollingSimResult,
    run_polling_simulation,
)
from .coloring import is_proper_coloring, six_color_planar
from .multicluster import TokenSchedule, assign_channels, concurrency_gain
from .multicluster_sim import (
    AdoptionEvent,
    FieldHandoffEvent,
    FieldReformCoordinator,
    FieldReformEvent,
    HeadFailoverCoordinator,
    MultiClusterConfig,
    MultiClusterResult,
    run_multicluster_simulation,
)
from .smac_sim import SmacSimConfig, SmacSimResult, run_smac_simulation

__all__ = [
    "PollingSimConfig",
    "PollingSimResult",
    "run_polling_simulation",
    "SmacSimConfig",
    "SmacSimResult",
    "run_smac_simulation",
    "six_color_planar",
    "is_proper_coloring",
    "TokenSchedule",
    "MultiClusterConfig",
    "MultiClusterResult",
    "AdoptionEvent",
    "FieldHandoffEvent",
    "FieldReformCoordinator",
    "FieldReformEvent",
    "HeadFailoverCoordinator",
    "run_multicluster_simulation",
    "assign_channels",
    "concurrency_gain",
]

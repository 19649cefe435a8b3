"""Interference/compatibility oracles the polling scheduler queries."""

from .base import (
    CompatibilityOracle,
    Link,
    PairwiseOracle,
    TabulatedOracle,
    group_nodes_distinct,
)
from .physical import PhysicalModelOracle
from .probing import GroupTableOracle, probe_connectivity, probe_cost, probe_groups
from .protocol import ProtocolModelOracle

__all__ = [
    "Link",
    "CompatibilityOracle",
    "PairwiseOracle",
    "TabulatedOracle",
    "group_nodes_distinct",
    "ProtocolModelOracle",
    "PhysicalModelOracle",
    "GroupTableOracle",
    "probe_connectivity",
    "probe_groups",
    "probe_cost",
]

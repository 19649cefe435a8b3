"""Relay routing: min-max-load flow routing, trees, rotation, AODV baseline."""

from .aodv import BROADCAST, AodvAgent, Rerr, Rrep, Rreq, RouteEntry
from .backup import BackupRoutes, compute_backup_routes
from .maxflow import INF, FlowNetwork
from .minmax import FlowSolution, RoutingInfeasible, solve_min_max_load
from .paths import RelayingPath, RoutingPlan, validate_path
from .repair import RepairResult, prune_dead_nodes, repair_routing
from .rotation import PathRotator
from .tables import (
    OneHopTables,
    SourceRouteHeader,
    build_one_hop_tables,
    route_packet,
    source_route_overhead_bytes,
)
from .tree import RelayTree, merge_flow_to_tree
from .warmcache import SolverCache, SolverCacheStats, topology_fingerprint

__all__ = [
    "FlowNetwork",
    "INF",
    "FlowSolution",
    "solve_min_max_load",
    "RoutingInfeasible",
    "RelayingPath",
    "RoutingPlan",
    "validate_path",
    "PathRotator",
    "BackupRoutes",
    "compute_backup_routes",
    "SolverCache",
    "SolverCacheStats",
    "topology_fingerprint",
    "RepairResult",
    "prune_dead_nodes",
    "repair_routing",
    "RelayTree",
    "merge_flow_to_tree",
    "OneHopTables",
    "SourceRouteHeader",
    "build_one_hop_tables",
    "route_packet",
    "source_route_overhead_bytes",
    "AodvAgent",
    "RouteEntry",
    "Rreq",
    "Rrep",
    "Rerr",
    "BROADCAST",
]

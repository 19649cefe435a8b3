"""Deployments, clusters and the TSRF gadget."""

from .cluster import HEAD, Cluster, node_name
from .deployment import (
    SENSOR_RANGE_M,
    SIDE_M,
    Deployment,
    grid,
    line,
    uniform_square,
)
from .forming import (
    DiscoveryResult,
    FormedNetwork,
    bfs_discover,
    form_clusters,
    voronoi_assignment,
)
from .recluster import (
    ReformResult,
    StalenessTracker,
    StalenessTrigger,
    discovered_cluster,
    reform_cluster,
)
from .handoff import (
    FieldReformPlan,
    HandoffMove,
    plan_field_reform,
    quantization_head_step,
    serving_staleness,
)
from .geometry import (
    as_positions,
    distances_to_point,
    nearest_index,
    pairwise_distances,
    within_range_adjacency,
)
from .tsrf import Tsrf, build_tsrf

__all__ = [
    "HEAD",
    "Cluster",
    "node_name",
    "Deployment",
    "uniform_square",
    "grid",
    "line",
    "SIDE_M",
    "SENSOR_RANGE_M",
    "Tsrf",
    "build_tsrf",
    "voronoi_assignment",
    "bfs_discover",
    "DiscoveryResult",
    "form_clusters",
    "FormedNetwork",
    "StalenessTrigger",
    "StalenessTracker",
    "ReformResult",
    "discovered_cluster",
    "reform_cluster",
    "HandoffMove",
    "FieldReformPlan",
    "plan_field_reform",
    "quantization_head_step",
    "serving_staleness",
    "as_positions",
    "pairwise_distances",
    "distances_to_point",
    "within_range_adjacency",
    "nearest_index",
]

"""The paper's primary contribution: multi-hop polling and sectoring."""

from .ack import (
    AckPlan,
    bfs_path_to_head,
    greedy_weighted_set_cover,
    plan_ack_collection,
    run_ack_collection,
)
from .bounds import makespan_lower_bound
from .jmhrp import (
    JmhrpResult,
    all_simple_paths_to_head,
    decomposed_jmhrp,
    exact_jmhrp,
    power_rate,
)
from .online import (
    BernoulliLoss,
    LossModel,
    OnlinePollingScheduler,
    OnlineResult,
)
from .optimal import OptimalResult, optimal_makespan, solve_optimal
from .requests import PollRequest, RequestPool, RequestState
from .schedule import PollingSchedule, ScheduleInvalid
from .sectors import (
    PairingRules,
    Sector,
    SectorPartition,
    partition_into_sectors,
    partition_tree_into_sectors,
)
from .transmissions import Transmission, links_of, occupied_nodes, structurally_ok

__all__ = [
    "Transmission",
    "occupied_nodes",
    "structurally_ok",
    "links_of",
    "PollRequest",
    "RequestPool",
    "RequestState",
    "PollingSchedule",
    "ScheduleInvalid",
    "OnlinePollingScheduler",
    "OnlineResult",
    "LossModel",
    "BernoulliLoss",
    "solve_optimal",
    "optimal_makespan",
    "OptimalResult",
    "makespan_lower_bound",
    "greedy_weighted_set_cover",
    "AckPlan",
    "plan_ack_collection",
    "run_ack_collection",
    "bfs_path_to_head",
    "Sector",
    "SectorPartition",
    "PairingRules",
    "partition_into_sectors",
    "partition_tree_into_sectors",
    "JmhrpResult",
    "power_rate",
    "decomposed_jmhrp",
    "exact_jmhrp",
    "all_simple_paths_to_head",
]

"""Acknowledgment collection at duty-cycle start (paper Sec. V-F).

After the head's wake-up inquiry broadcast, every sensor must acknowledge
(and piggyback its packet count).  Polling each sensor individually wastes
time: sensors along one relaying path can *merge* their acks — a relay adds
its own ack to the packet it forwards — so only the sensor at the *start* of
each path needs to be polled.

The head therefore (1) chooses, among candidate paths, a set covering all
sensors with minimum total hop count — the Weighted Set Cover problem,
solved greedily by minimum covering cost = cost / newly-covered; and
(2) polls the chosen path heads with the ordinary multi-hop polling
algorithm.

Candidates default to the cycle's relaying paths plus, as a fallback, each
sensor's BFS shortest path (so coverage is guaranteed even for sensors that
appear on no data path this cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..interference.base import CompatibilityOracle
from ..routing.paths import RelayingPath, RoutingPlan
from ..topology.cluster import HEAD, Cluster
from .online import OnlinePollingScheduler, OnlineResult

__all__ = [
    "greedy_weighted_set_cover",
    "AckPlan",
    "plan_ack_collection",
    "ack_phase_plan",
    "run_ack_collection",
    "bfs_path_to_head",
]


def greedy_weighted_set_cover(
    universe: set[int],
    subsets: list[tuple[frozenset[int], float]],
) -> list[int]:
    """Classic greedy WSC: repeatedly take the subset with minimum
    cost / newly-covered.  Returns chosen subset indices (input order ties
    broken low).  Raises if the union cannot cover the universe.
    """
    union: set[int] = set()
    for s, _ in subsets:
        union |= s
    if not universe <= union:
        missing = sorted(universe - union)
        raise ValueError(f"subsets cannot cover elements {missing}")
    uncovered = set(universe)
    chosen: list[int] = []
    while uncovered:
        best_idx = -1
        best_key: tuple[float, int] | None = None
        for idx, (members, cost) in enumerate(subsets):
            gain = len(members & uncovered)
            if gain == 0:
                continue
            # Minimum covering cost; ties prefer the larger subset (fewer
            # polls for the same cost), then input order.
            key = (cost / gain, -gain)
            if best_key is None:
                better = True
            elif key[0] < best_key[0] - 1e-12:
                better = True
            elif abs(key[0] - best_key[0]) <= 1e-12 and key[1] < best_key[1]:
                better = True
            else:
                better = False
            if better:
                best_key = key
                best_idx = idx
        assert best_idx >= 0  # guaranteed by the cover pre-check
        chosen.append(best_idx)
        uncovered -= subsets[best_idx][0]
    return chosen


def bfs_path_to_head(cluster: Cluster, sensor: int) -> RelayingPath:
    """A minimum-hop relaying path for *sensor* (deterministic BFS)."""
    if cluster.head_hears[sensor]:
        return (sensor, HEAD)
    n = cluster.n_sensors
    # BFS backward from the head: dist[i] = hops from i to head.
    dist = np.full(n, -1, dtype=np.int64)
    first_level = [int(i) for i in np.flatnonzero(cluster.head_hears)]
    for i in first_level:
        dist[i] = 1
    frontier = first_level
    while frontier:
        nxt: list[int] = []
        for i in frontier:
            # j can forward to i if i hears j.
            for j in np.flatnonzero(cluster.hears[i, :]):
                j = int(j)
                if dist[j] == -1:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        frontier = sorted(nxt)
    if dist[sensor] == -1:
        raise ValueError(f"sensor {sensor} cannot reach the head")
    # Walk downhill from sensor choosing the lowest-id next hop.
    path = [sensor]
    node = sensor
    while dist[node] > 1:
        candidates = [
            int(j)
            for j in np.flatnonzero(cluster.hears[:, node])
            if dist[int(j)] == dist[node] - 1
        ]
        node = min(candidates)
        path.append(node)
    path.append(HEAD)
    return tuple(path)


@dataclass
class AckPlan:
    """The chosen covering paths and their aggregate cost."""

    paths: list[RelayingPath]
    total_hop_count: int
    covered: set[int]

    @property
    def n_polls(self) -> int:
        """Only the first sensor of each chosen path gets polled."""
        return len(self.paths)


def plan_ack_collection(
    cluster: Cluster,
    plan: RoutingPlan | None = None,
    extra_candidates: list[RelayingPath] | None = None,
) -> AckPlan:
    """Pick covering paths by greedy weighted set cover.

    Candidates: the routing plan's paths (if given), any extras, and BFS
    fallbacks for each sensor (ensuring feasibility).  Subset = the sensors
    on a path; cost = the path's hop count.
    """
    n = cluster.n_sensors
    candidates: list[RelayingPath] = []
    if plan is not None:
        candidates.extend(plan.paths.values())
    if extra_candidates:
        candidates.extend(tuple(p) for p in extra_candidates)
    covered_by_candidates: set[int] = set()
    for p in candidates:
        covered_by_candidates |= set(p[:-1])
    hops = cluster.min_hop_counts()
    reachable = {s for s in range(n) if np.isfinite(hops[s])}
    for sensor in sorted(reachable):
        if sensor not in covered_by_candidates:
            candidates.append(bfs_path_to_head(cluster, sensor))
    # Dedupe preserving order.
    seen: set[RelayingPath] = set()
    unique: list[RelayingPath] = []
    for p in candidates:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    subsets = [(frozenset(p[:-1]), float(len(p) - 1)) for p in unique]
    chosen_idx = greedy_weighted_set_cover(reachable, subsets)
    chosen = [unique[i] for i in chosen_idx]
    covered: set[int] = set()
    for p in chosen:
        covered |= set(p[:-1])
    return AckPlan(
        paths=chosen,
        total_hop_count=sum(len(p) - 1 for p in chosen),
        covered=covered,
    )


def ack_phase_plan(cluster: Cluster, paths: Iterable[RelayingPath]) -> RoutingPlan:
    """The ack phase as a routing plan: one packet at each path's first sensor.

    Paths are keyed by their first sensor, so a later path with the same
    start replaces an earlier one.
    """
    by_start = {p[0]: p for p in paths}
    packets = np.zeros(cluster.n_sensors, dtype=np.int64)
    packets[list(by_start)] = 1
    return RoutingPlan(cluster=cluster.with_packets(packets), paths=by_start)


def run_ack_collection(
    cluster: Cluster,
    ack_plan: AckPlan,
    oracle: CompatibilityOracle,
) -> OnlineResult:
    """Schedule the ack sweep: poll each chosen path's head sensor once.

    Modeled as a one-packet polling run whose requests originate at the
    chosen paths' first sensors — merging acks along the way means exactly
    one packet per path (Sec. V-F).
    """
    packets = np.zeros(cluster.n_sensors, dtype=np.int64)
    paths: dict[int, RelayingPath] = {}
    for p in ack_plan.paths:
        start = p[0]
        if start in paths:
            # Two chosen paths share a start sensor; keep the longer (more
            # coverage) and let set-cover's other path be collected by it.
            if len(p) <= len(paths[start]):
                continue
        paths[start] = p
        packets[start] = 1
    ack_cluster = cluster.with_packets(packets)
    ack_routing = RoutingPlan(cluster=ack_cluster, paths=paths)
    return OnlinePollingScheduler.poll(ack_routing, oracle)

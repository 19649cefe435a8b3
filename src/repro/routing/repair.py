"""Incremental route repair around failed nodes.

The paper computes min-max-load routing "once every long time period"
(Sec. III-A); a production head must additionally *re*-compute it when
sensors die.  Repair is deliberately performed at duty-cycle boundaries —
within a cycle the schedule is already committed, and the online algorithm's
re-polling plus retry budgets absorb the damage until the boundary.

The repair contract is **graceful degradation, never abort**: dead nodes are
cut out of the hearing graph, sensors left without any multi-hop path to the
head are reported as uncovered (their packets are planned at zero) instead of
raising :class:`~repro.routing.minmax.RoutingInfeasible`, and everything
still reachable gets a fresh min-max-load flow over the surviving topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs import profile_span as _profile_span
from ..topology.cluster import Cluster
from .minmax import FlowSolution, solve_min_max_load

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .warmcache import SolverCache

__all__ = [
    "RepairResult",
    "prune_dead_nodes",
    "repair_routing",
]


def prune_dead_nodes(cluster: Cluster, dead: set[int]) -> Cluster:
    """A copy of *cluster* with *dead* sensors cut out of the hearing graph.

    Dead sensors keep their index (all node ids stay stable) but hear
    nothing, are heard by nothing — including the head — and carry zero
    packets, so no routing or covering computation can ever use them.
    """
    if not dead:
        return cluster
    n = cluster.n_sensors
    for node in dead:
        if not 0 <= node < n:
            raise ValueError(f"dead node {node} out of range for n={n}")
    idx = sorted(dead)
    hears = cluster.hears.copy()
    hears[idx, :] = False
    hears[:, idx] = False
    head_hears = cluster.head_hears.copy()
    head_hears[idx] = False
    packets = cluster.packets.copy()
    packets[idx] = 0
    return Cluster(
        hears=hears,
        head_hears=head_hears,
        packets=packets,
        energy=cluster.energy.copy(),
        positions=None if cluster.positions is None else cluster.positions.copy(),
        head_position=None
        if cluster.head_position is None
        else cluster.head_position.copy(),
    )


@dataclass
class RepairResult:
    """Outcome of one route repair."""

    cluster: Cluster  # the pruned topology routing now runs on
    solution: FlowSolution  # fresh min-max flow over the survivors
    dead: frozenset[int]  # nodes excluded as failed
    uncovered: frozenset[int]  # live sensors left with no path to the head
    dropped_demand: dict[int, int]  # uncovered sensor -> packets zeroed for it
    """Exactly which packets the partial-coverage fallback planned away,
    per uncovered sensor.  Every uncovered sensor appears (possibly at 0),
    so degradation metrics and the packet-conservation invariant reconcile
    packet-for-packet: demand in == demand routed + sum(dropped_demand)."""

    @property
    def dropped_packets(self) -> int:
        """Total demand the repair could not serve."""
        return sum(self.dropped_demand.values())

    @property
    def coverage(self) -> float:
        """Fraction of all sensors still served after the repair."""
        n = self.cluster.n_sensors
        if n == 0:
            return 1.0
        return 1.0 - (len(self.dead) + len(self.uncovered)) / n


def repair_routing(
    cluster: Cluster,
    dead: set[int],
    energy_aware: bool = False,
    engine: str = "warm",
    method: str | None = None,
    cache: "SolverCache | None" = None,
) -> RepairResult:
    """Recompute min-max-load routing with *dead* nodes excluded.

    *cluster* is the original (pre-fault) topology with its per-sensor
    packet demands; the repair prunes the dead nodes, zeroes the demand of
    any survivor that lost its last path (partial coverage), and solves the
    flow on what remains.  Repairs run at duty-cycle boundaries where
    latency matters, so the solve defaults to the warm-start engine
    (``engine``/``method`` are forwarded to
    :func:`~repro.routing.minmax.solve_min_max_load`).  With a *cache* the
    solve goes through :meth:`~repro.routing.warmcache.SolverCache.
    routing_for`, which answers a repeat topology bit-for-bit from memory.
    """
    with _profile_span(
        "routing.repair", histogram="routing.repair_wall_s", dead=len(dead)
    ):
        pruned = prune_dead_nodes(cluster, set(dead))
        hops = pruned.min_hop_counts()
        uncovered = frozenset(
            i
            for i in range(pruned.n_sensors)
            if i not in dead and not np.isfinite(hops[i])
        )
        dropped_demand = {i: int(pruned.packets[i]) for i in sorted(uncovered)}
        if uncovered:
            packets = pruned.packets.copy()
            packets[sorted(uncovered)] = 0
            pruned = pruned.with_packets(packets)
        solve = solve_min_max_load if cache is None else cache.routing_for
        solution = solve(
            pruned, energy_aware=energy_aware, engine=engine, method=method
        )
        return RepairResult(
            cluster=pruned,
            solution=solution,
            dead=frozenset(dead),
            uncovered=uncovered,
            dropped_demand=dropped_demand,
        )

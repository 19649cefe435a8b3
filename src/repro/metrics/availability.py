"""Availability metrics for faulted runs: recovery latency and continuity.

Degradation metrics (:mod:`repro.metrics.degradation`) answer *how much* a
faulted run lost; this module answers *how fast* it came back.  Recovery
work — in-cycle failover onto backup paths, boundary route repair, head
takeover — all cashes out as the same observable: the head resumes taking
delivery of data packets.  So each fault's **time-to-recover** is measured
from its injection time to the first data delivery after it, and **delivery
continuity** is the fraction of duty cycles with offered traffic in which at
least one packet actually arrived.  Both come straight from the MAC's run
records — its deliveries, re-plans and failovers, which cost nothing to
record and exist whether or not any survivability feature is armed —
making reactive-vs-proactive comparisons (``backup_k=0`` vs ``k>=1``)
apples to apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector
    from ..mac.pollmac import PollingClusterMac

__all__ = ["FaultRecovery", "AvailabilityReport", "availability_report"]

_FAULT_KINDS = ("crash", "stun", "battery-death")


def _affected_origins(
    mac: "PollingClusterMac", node: int, at: float
) -> set[int]:
    """Origins whose routing (in force at time *at*) relied on *node*.

    Any rotation alternative counts — the rotator may pick any of a
    sensor's flow paths each cycle.  The faulted node's own traffic is
    excluded: a crashed or depleted sensor cannot recover, and counting it
    would turn every fatal fault into infinite downtime by definition.
    """
    solution = None
    for record in mac.replans:
        if record.time > at:
            break
        solution = record.routing
    if solution is None:
        return set()
    return {
        sensor
        for sensor, bundles in solution.flow_paths.items()
        if sensor != node
        and any(node in path[1:-1] for path, _ in bundles)
    }


@dataclass(frozen=True)
class FaultRecovery:
    """One fault and the delivery that proved its victims had recovered.

    ``affected`` are the origins whose relay paths (any rotation
    alternative in the routing in force at injection time) ran through the
    faulted node — the flows the fault could actually disturb.  Recovery is
    the first post-fault delivery *from an affected origin*; deliveries of
    untouched sensors prove nothing about the fault.  A fault nobody routed
    through recovers instantly (downtime 0).
    """

    node: int
    kind: str  # "crash" | "stun" | "battery-death"
    at: float  # injection time
    affected: tuple[int, ...]  # origins routed through the faulted node
    recovered_at: float | None  # first affected-origin delivery after it
    """``None`` when no affected origin ever delivered again — the fault's
    victims stayed dark for the rest of the run."""

    @property
    def downtime(self) -> float:
        """Seconds from the fault to its victims' next delivery.  0.0 when
        the fault disturbed no flow; inf when the victims never recovered."""
        if not self.affected:
            return 0.0
        if self.recovered_at is None:
            return math.inf
        return self.recovered_at - self.at


@dataclass(frozen=True)
class AvailabilityReport:
    """How quickly and how continuously one run delivered under faults."""

    cycle_length: float
    recoveries: tuple[FaultRecovery, ...]
    in_cycle_failovers: int  # backup-path switches the schedulers performed
    route_repairs: int  # boundary re-solves
    cycles_offered: int  # duty cycles that had traffic to deliver
    cycles_delivering: int  # of those, cycles with >= 1 delivery

    @property
    def continuity(self) -> float:
        """Fraction of traffic-bearing cycles that delivered something."""
        if self.cycles_offered == 0:
            return 1.0
        return self.cycles_delivering / self.cycles_offered

    @property
    def median_time_to_recover(self) -> float:
        """Median seconds from a fault to the next delivery (0.0 if no
        faults; inf when most faults were never recovered from)."""
        times = sorted(r.downtime for r in self.recoveries)
        if not times:
            return 0.0
        mid = len(times) // 2
        if len(times) % 2:
            return times[mid]
        return (times[mid - 1] + times[mid]) / 2.0

    @property
    def median_ttr_cycles(self) -> float:
        """Median time-to-recover in units of the polling cycle length."""
        if self.cycle_length <= 0:
            return math.inf
        return self.median_time_to_recover / self.cycle_length


def availability_report(
    mac: "PollingClusterMac",
    injector: "FaultInjector | None" = None,
    cycle_length: float | None = None,
) -> AvailabilityReport:
    """Build the availability report from a finished run's MAC.

    Each injector fault (crash, stun, battery death — recoveries are the
    remedy, not a fault) is matched against the head's delivery log: the
    first data packet accepted strictly after the fault's injection time
    marks the recovery.  Without an injector the report still carries the
    failover/repair counters and continuity — useful for head-takeover runs
    where the fault is injected outside the FaultPlan machinery.
    """
    if cycle_length is None:
        cycle_length = mac.cycle_length
    recoveries: list[FaultRecovery] = []
    if injector is not None:
        for event in injector.events:
            if event.kind not in _FAULT_KINDS:
                continue
            affected = _affected_origins(mac, event.node, event.time)
            recovered = None
            if affected:
                recovered = next(
                    (
                        t
                        for t, packet in mac.deliveries
                        if t > event.time and packet.origin in affected
                    ),
                    None,
                )
            recoveries.append(
                FaultRecovery(
                    node=event.node,
                    kind=event.kind,
                    at=event.time,
                    affected=tuple(sorted(affected)),
                    recovered_at=recovered,
                )
            )
    offered = [s for s in mac.cycle_stats if s.packets_offered > 0]
    delivering = [s for s in offered if s.packets_delivered > 0]
    return AvailabilityReport(
        cycle_length=cycle_length,
        recoveries=tuple(recoveries),
        in_cycle_failovers=mac.in_cycle_failovers,
        route_repairs=mac.route_repairs,
        cycles_offered=len(offered),
        cycles_delivering=len(delivering),
    )

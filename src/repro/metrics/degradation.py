"""Graceful-degradation metrics for faulted runs.

When sensors die mid-run the paper's throughput/active-time metrics stop
telling the whole story: packets strand inside dead relays, survivors lose
their last route, and the head's blacklist may not match ground truth.
:func:`degradation_report` cross-references the MAC's end state (blacklist,
unreachable survivors, buffers) and its re-plan records with the fault
injector's ground truth (when one ran) into a single report the evaluation
benches and the fault-ablation experiment print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector
    from ..mac.pollmac import PollingClusterMac, Replan

__all__ = [
    "DegradationReport",
    "degradation_report",
    "reconcile_dropped_demand",
]


def reconcile_dropped_demand(replans: Iterable[Replan]) -> dict[int, int]:
    """Per-sensor pending packets dropped by re-planning, counted once.

    Each of the MAC's :class:`~repro.mac.pollmac.Replan` records lists the
    sensors it cut off; because pruning only grows, a sensor stranded before
    re-plan N is still stranded at re-plan N+1, and summing every record
    would bill the same pending packets to every later re-plan.  Attribution
    is therefore to the *first* re-plan that dropped the sensor; later
    records never add to it.
    """
    merged: dict[int, int] = {}
    for record in replans:
        for sensor, pending in record.dropped_pending.items():
            merged.setdefault(sensor, pending)
    return merged


@dataclass(frozen=True)
class DegradationReport:
    """How gracefully one run degraded under faults."""

    n_sensors: int
    delivered: int  # data packets that reached the head
    failed: int  # requests that exhausted their retry budget
    dead_true: frozenset[int]  # ground truth from the injector ({} if none ran)
    blacklisted: frozenset[int]  # the head's belief (declared dead)
    unreachable: frozenset[int]  # survivors the repair left without a route
    stranded_packets: int  # packets stuck inside dead nodes' buffers
    purged_packets: int  # dead-origin packets relays refused to carry
    route_repairs: int  # times the head re-solved routing mid-run
    undeliverable_pending: int = 0  # packets queued at unreachable survivors
    """Packets sitting at live-but-routeless sensors when the run ended —
    the demand route repair explicitly planned away (per-sensor detail in
    the ``dropped_pending`` of the MAC's re-plan records, ``mac.replans``).
    Together with ``stranded_packets`` this closes the conservation ledger:
    every generated packet is delivered, failed, stranded in a dead node,
    undeliverable at a cut-off survivor, or still queued awaiting its next
    polling opportunity."""

    @property
    def delivery_ratio(self) -> float:
        """Delivered / (delivered + retry-exhausted).  1.0 when nothing
        was eligible — an idle run did not *lose* anything."""
        eligible = self.delivered + self.failed
        if eligible == 0:
            return 1.0
        return self.delivered / eligible

    @property
    def surviving_coverage(self) -> float:
        """Fraction of sensors the head can still serve: alive (by both
        ground truth and the head's belief) and reachable."""
        if self.n_sensors == 0:
            return 1.0
        lost = self.dead_true | self.blacklisted | self.unreachable
        return 1.0 - len(lost) / self.n_sensors

    @property
    def false_positives(self) -> frozenset[int]:
        """Live sensors the head wrongly declared dead (the cost of the
        conservative suspect heuristic when evidence can't separate a dead
        relay from the live sensors routed behind it)."""
        return self.blacklisted - self.dead_true

    @property
    def missed_deaths(self) -> frozenset[int]:
        """Actually-dead sensors the head has not (yet) declared."""
        return self.dead_true - self.blacklisted


def degradation_report(
    mac: PollingClusterMac,
    injector: FaultInjector | None = None,
) -> DegradationReport:
    """Build the report from a finished run's MAC (and optional injector).

    Stranded packets are counted from the ground-truth dead nodes' buffers
    (own queue + relay buffer) — the data that physically cannot reach the
    head any more.  Without an injector the head's blacklist stands in for
    ground truth, so the metric degrades to "packets at blacklisted nodes".
    """
    dead_true = frozenset(injector.dead) if injector is not None else frozenset()
    counting_dead = dead_true if injector is not None else frozenset(mac.blacklisted)
    # Announced departures strand their buffers exactly like deaths; the
    # attribute check keeps pre-churn injectors (and stand-ins) working.
    counting_dead = counting_dead | frozenset(getattr(injector, "departed", ()) or ())
    counting_dead = counting_dead | frozenset(getattr(mac, "departed", ()) or ())
    stranded = 0
    purged = 0
    undeliverable = 0
    for agent in mac.sensors:
        purged += agent.packets_purged
        if agent.sensor in counting_dead:
            stranded += len(agent.own_queue) + len(agent.relay_buffer)
        elif agent.sensor in mac.unreachable:
            undeliverable += len(agent.own_queue) + len(agent.relay_buffer)
    return DegradationReport(
        n_sensors=mac.phy.n_sensors,
        delivered=mac.packets_delivered,
        failed=mac.packets_failed,
        dead_true=dead_true,
        blacklisted=frozenset(mac.blacklisted),
        unreachable=frozenset(mac.unreachable),
        stranded_packets=stranded,
        purged_packets=purged,
        route_repairs=mac.route_repairs,
        undeliverable_pending=undeliverable,
    )

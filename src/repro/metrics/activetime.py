"""Schedule-level active-time model (the Fig. 7a engine).

Runs the real protocol logic — ack set-cover, the Table-1 scheduler, path
rotation, per-cycle CBR packet arithmetic, backlog carry-over and
saturation — at slot granularity without PHY events, which makes full
parameter sweeps (cluster size x data rate) take seconds instead of hours.
The event-driven MAC (:mod:`repro.net.cluster_sim`) implements the same
protocol; tests assert the two agree on duty time for common configs.

Saturation semantics: if a duty cycle's work exceeds the cycle length the
next cycle simply starts late (the head cannot compress physics), so the
effective period stretches, the active fraction approaches 1, and backlog
grows without bound — the paper's "above this threshold, packets will be
lost" cliff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.ack import plan_ack_collection
from ..core.online import BernoulliLoss, LossModel, OnlinePollingScheduler
from ..mac.base import MacTimings, geometric_oracle
from ..radio.packet import DEFAULT_SIZES, FrameSizes
from ..routing.minmax import solve_min_max_load
from ..routing.paths import RoutingPlan
from ..routing.rotation import PathRotator
from ..sim.units import transmission_time
from ..topology.cluster import Cluster
from ..topology.deployment import uniform_square

__all__ = ["ActiveTimeConfig", "CycleRecord", "ActiveTimeResult", "simulate_active_time"]


@dataclass(frozen=True)
class ActiveTimeConfig:
    n_sensors: int = 30
    rate_bps: float = 20.0
    cycle_length: float = 10.0
    n_cycles: int = 50
    warmup_cycles: int = 5
    seed: int = 0
    side_m: float = 200.0
    sensor_range_m: float = 55.0
    bitrate: float = 200_000.0
    packet_bytes: int = 80
    max_group_size: int = 2
    loss_rate: float = 0.0
    sizes: FrameSizes = DEFAULT_SIZES
    timings: MacTimings = MacTimings()


@dataclass
class CycleRecord:
    start: float
    duty_time: float
    period: float  # max(cycle_length, duty_time): saturation stretches it
    ack_slots: int
    data_slots: int
    packets: int


@dataclass
class ActiveTimeResult:
    config: ActiveTimeConfig
    cycles: list[CycleRecord]
    saturated: bool
    backlog_end: float

    @property
    def active_fraction(self) -> float:
        """Mean duty-time share after warmup (the Fig. 7a y-value)."""
        recs = self.cycles[self.config.warmup_cycles :] or self.cycles
        if not recs:
            return 0.0
        total_duty = sum(r.duty_time for r in recs)
        total_span = sum(r.period for r in recs)
        return min(1.0, total_duty / total_span) if total_span > 0 else 1.0


def simulate_active_time(config: ActiveTimeConfig = ActiveTimeConfig()) -> ActiveTimeResult:
    """Run the slot-level protocol model for *n_cycles* duty cycles."""
    dep = uniform_square(
        config.n_sensors,
        seed=config.seed,
        side=config.side_m,
        comm_range=config.sensor_range_m,
    )
    geo = Cluster.from_deployment(dep)
    oracle, cluster = geometric_oracle(
        geo,
        sensor_range_m=config.sensor_range_m,
        max_group_size=config.max_group_size,
    )
    n = cluster.n_sensors
    # Routing from average traffic (>= 1 packet so every sensor has a path).
    planning = cluster.with_packets(np.ones(n, dtype=np.int64))
    routing = solve_min_max_load(planning)
    rotator = PathRotator(routing)
    ack_plan = plan_ack_collection(cluster, routing.routing_plan())
    ack_paths = {p[0]: p for p in ack_plan.paths}
    ack_packets = np.zeros(n, dtype=np.int64)
    for s in ack_paths:
        ack_packets[s] = 1
    ack_routing = RoutingPlan(
        cluster=cluster.with_packets(ack_packets), paths=ack_paths
    )

    bitrate = config.bitrate
    sizes = config.sizes
    ack_slot = config.timings.poll_slot_time(bitrate, sizes, sizes.ack_report)
    data_slot = config.timings.poll_slot_time(bitrate, sizes, sizes.data)
    overhead = (
        transmission_time(sizes.wakeup, bitrate)
        + config.timings.turnaround
        + transmission_time(sizes.sleep, bitrate)
    )

    # Fractional per-sensor packet accumulators (deterministic CBR).
    accrual = np.zeros(n)
    backlog = np.zeros(n, dtype=np.int64)
    per_cycle_packets = config.rate_bps * config.cycle_length / config.packet_bytes

    cycles: list[CycleRecord] = []
    now = 0.0
    loss: LossModel | None = (
        BernoulliLoss(config.loss_rate, seed=config.seed) if config.loss_rate else None
    )
    for c in range(config.n_cycles):
        # Packets generated since the previous wakeup (period may stretch).
        period = cycles[-1].period if cycles else config.cycle_length
        accrual += config.rate_bps * period / config.packet_bytes
        new_pkts = np.floor(accrual).astype(np.int64)
        accrual -= new_pkts
        backlog += new_pkts

        ack_result = OnlinePollingScheduler.poll(ack_routing, oracle, loss=loss)
        data_slots = 0
        total_packets = int(backlog.sum())
        if total_packets > 0:
            base_plan = rotator.next_cycle()
            paths = {
                s: base_plan.paths[s]
                for s in range(n)
                if backlog[s] > 0 and s in base_plan.paths
            }
            data_plan = RoutingPlan(
                cluster=cluster.with_packets(backlog.copy()), paths=paths
            )
            data_result = OnlinePollingScheduler.poll(data_plan, oracle, loss=loss)
            data_slots = data_result.slots_elapsed
            backlog[:] = 0  # all delivered (re-polling guarantees delivery)
        duty = overhead + ack_result.slots_elapsed * ack_slot + data_slots * data_slot
        cycles.append(
            CycleRecord(
                start=now,
                duty_time=duty,
                period=max(config.cycle_length, duty),
                ack_slots=ack_result.slots_elapsed,
                data_slots=data_slots,
                packets=total_packets,
            )
        )
        now += max(config.cycle_length, duty)

    # Saturated when duty cycles (post-warmup) keep exceeding the period.
    tail = cycles[config.warmup_cycles :] or cycles
    saturated = all(r.duty_time >= config.cycle_length for r in tail[-3:])
    return ActiveTimeResult(
        config=config,
        cycles=cycles,
        saturated=saturated,
        backlog_end=float(backlog.sum()),
    )

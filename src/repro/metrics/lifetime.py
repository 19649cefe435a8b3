"""Sensor lifetime under the paper's power-rate model (the Fig. 7c engine).

Sec. III-E: a sensor's life is inversely proportional to its power
consumption rate  r(v) = c1 * load(v) + c2 * T,  where load(v) is its
transmit load per duty cycle and T is the time it must stay awake (the
polling time of its cluster — or, with sectors, of its *sector*).

We ground c1 and c2 in the radio energy model rather than picking numbers:
staying awake for one slot costs ``idle_w * slot_time``; transmitting one
packet costs ``(tx_w - idle_w) * data_airtime`` *extra*; so

    r(v) = (tx_w - idle_w) * airtime * load(v)  +  idle_w * slot_time * T_slots

in joules per duty cycle.  Lifetime(v) = battery / (r(v) * cycles per
second); the *cluster* lifetime is set by its worst sensor (first death).

Fig. 7(c) compares max-rate with sectors (each sensor awake only for its
sector's polling) against without (everyone awake for the whole cluster's
polling), at 100% throughput in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.online import OnlinePollingScheduler
from ..core.sectors import PairingRules, SectorPartition, partition_into_sectors
from ..interference.base import CompatibilityOracle
from ..mac.base import MacTimings, geometric_oracle
from ..radio.channel import BITRATE_BPS
from ..radio.energy import EnergyParams
from ..radio.packet import DEFAULT_SIZES, FrameSizes
from ..routing.minmax import solve_min_max_load
from ..routing.tree import merge_flow_to_tree
from ..sim.units import transmission_time
from ..topology.cluster import Cluster
from ..topology.deployment import SENSOR_RANGE_M, uniform_square

__all__ = [
    "LifetimeResult",
    "cycles_to_first_death",
    "EnergyRateModel",
    "evaluate_lifetime_ratio",
]


@dataclass(frozen=True)
class EnergyRateModel:
    """Translates (load, awake slots) into joules per duty cycle."""

    energy: EnergyParams = EnergyParams()
    sizes: FrameSizes = DEFAULT_SIZES
    timings: MacTimings = MacTimings()

    # Sensors wake a little early to absorb clock drift; with sectors they
    # rendezvous twice per cycle (the cluster-wide ack phase and their
    # sector's turn), so margins are charged per wake event.
    wake_margin_slots: float = 3.0

    @property
    def slot_time(self) -> float:
        return self.timings.poll_slot_time(BITRATE_BPS, self.sizes, self.sizes.data)

    @property
    def ack_slot_time(self) -> float:
        return self.timings.poll_slot_time(BITRATE_BPS, self.sizes, self.sizes.ack_report)

    @property
    def data_airtime(self) -> float:
        return transmission_time(self.sizes.data, BITRATE_BPS)

    @property
    def c1(self) -> float:
        """Extra joules per transmitted packet (tx above idle)."""
        return (self.energy.tx_w - self.energy.idle_w) * self.data_airtime

    @property
    def c2(self) -> float:
        """Joules per slot spent awake."""
        return self.energy.idle_w * self.slot_time

    def rate(
        self,
        load: float,
        awake_slots: float,
        ack_slots: float = 0.0,
        wake_events: int = 1,
    ) -> float:
        """Joules consumed per duty cycle.

        ``awake_slots`` counts data-phase slots the sensor stays up for;
        ``ack_slots`` the cluster-wide acknowledgment phase (everyone is
        awake for it — Sec. V-F runs before data transmission regardless of
        sectoring); ``wake_events`` charges the clock-drift margin once per
        rendezvous.
        """
        return (
            self.c1 * load
            + self.c2 * (awake_slots + wake_events * self.wake_margin_slots)
            + self.energy.idle_w * self.ack_slot_time * ack_slots
        )

    def lifetime_cycles(self, load: float, awake_slots: float) -> float:
        r = self.rate(load, awake_slots)
        if r <= 0:
            return float("inf")
        return self.energy.battery_j / r


@dataclass
class LifetimeResult:
    """Per-sensor power rates and the headline ratio for one cluster.

    Each rate map is keyed by sensor, in polling order (sensor order whole;
    sector by sector with sectors), in joules per duty cycle.
    """

    n_sensors: int
    unsectored_polling_slots: int
    sector_polling_slots: list[int]
    whole_rates: dict[int, float]
    sector_rates: dict[int, float]
    partition: SectorPartition

    @property
    def max_rate_unsectored(self) -> float:
        return max(self.whole_rates.values(), default=0.0)

    @property
    def max_rate_sectored(self) -> float:
        return max(self.sector_rates.values(), default=0.0)

    @property
    def lifetime_ratio(self) -> float:
        """Sectored lifetime / unsectored lifetime (Fig. 7c y-value)."""
        if self.max_rate_sectored <= 0:
            return float("inf")
        return self.max_rate_unsectored / self.max_rate_sectored

    @property
    def n_sectors(self) -> int:
        return self.partition.n_sectors


def cycles_to_first_death(
    cluster: Cluster,
    oracle: CompatibilityOracle,
    model: EnergyRateModel = EnergyRateModel(),
    sectored: bool = False,
    rules: PairingRules = PairingRules(),
) -> tuple[float, int]:
    """Duty cycles until the first sensor battery dies, and which sensor.

    Deterministic: per-cycle consumption is the rate model evaluated on the
    fixed routing (loads and awake slots don't change cycle to cycle in the
    one-packet-per-sensor setting), so first death = battery / worst rate
    of :func:`evaluate_lifetime_ratio_for_cluster`.  Returns ``(cycles,
    sensor)``.
    """
    result = evaluate_lifetime_ratio_for_cluster(cluster, oracle, model=model, rules=rules)
    rates = result.sector_rates if sectored else result.whole_rates
    worst_sensor = max(rates, key=rates.get)
    worst = rates[worst_sensor]
    cycles = model.energy.battery_j / worst if worst > 0 else float("inf")
    return cycles, worst_sensor


def evaluate_lifetime_ratio(
    n_sensors: int = 30,
    seed: int = 0,
    model: EnergyRateModel = EnergyRateModel(),
    rules: PairingRules = PairingRules(),
    max_group_size: int = 2,
) -> LifetimeResult:
    """Build a cluster, poll it whole and by sectors, compare worst rates.

    Every sensor has one packet per cycle (the Sec. IV setting).  With
    sectors, a sensor is awake for its own sector's polling plus the fixed
    duty overhead; without, for the whole cluster's polling.
    """
    dep = uniform_square(n_sensors, seed=seed)
    geo = Cluster.from_deployment(dep)
    oracle, cluster = geometric_oracle(
        geo, sensor_range_m=SENSOR_RANGE_M, max_group_size=max_group_size
    )
    return evaluate_lifetime_ratio_for_cluster(cluster, oracle, model=model, rules=rules)


def evaluate_lifetime_ratio_for_cluster(
    cluster: Cluster,
    oracle: CompatibilityOracle,
    model: EnergyRateModel = EnergyRateModel(),
    rules: PairingRules = PairingRules(),
) -> LifetimeResult:
    """The Fig. 7c computation on an explicit cluster + oracle."""
    from ..core.ack import ack_phase_plan, plan_ack_collection

    solution = solve_min_max_load(cluster)
    tree = merge_flow_to_tree(solution)

    # Cluster-wide ack phase (everyone awake for it, sectored or not).
    ack = plan_ack_collection(cluster, solution.routing_plan())
    ack_plan = ack_phase_plan(cluster, ack.paths)
    ack_slots = OnlinePollingScheduler.poll(ack_plan, oracle).slots_elapsed

    # --- unsectored: whole-cluster polling, everyone awake throughout.
    plan = tree.routing_plan()
    t_whole = OnlinePollingScheduler.poll(plan, oracle).slots_elapsed
    loads_whole = plan.loads()
    whole_rates = {
        s: model.rate(float(loads_whole[s]), float(t_whole), ack_slots=ack_slots)
        for s in range(cluster.n_sensors)
    }

    # --- sectored: same tree, paired branches; awake for the cluster-wide
    # ack phase plus only their own sector's polling turn (two rendezvous).
    partition = partition_into_sectors(solution, oracle=oracle, rules=rules)
    sector_slots: list[int] = []
    sector_rates: dict[int, float] = {}
    for sec in partition.sectors:
        sec_plan = sec.routing_plan(cluster)
        t_sec = (
            OnlinePollingScheduler.poll(sec_plan, oracle).slots_elapsed
            if sec_plan.paths
            else 0
        )
        sector_slots.append(t_sec)
        sec_loads = sec.loads(cluster)
        for s in sec.sensors:
            sector_rates[s] = model.rate(
                float(sec_loads[s]), float(t_sec), ack_slots=ack_slots, wake_events=2
            )
    return LifetimeResult(
        n_sensors=cluster.n_sensors,
        unsectored_polling_slots=t_whole,
        sector_polling_slots=sector_slots,
        whole_rates=whole_rates,
        sector_rates=sector_rates,
        partition=partition,
    )

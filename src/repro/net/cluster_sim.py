"""End-to-end single-cluster simulation: deployment -> PHY -> polling MAC.

This is the harness the evaluation benches call.  It follows the paper's
setup order: deploy sensors, *discover* connectivity from the actual radio
(Sec. V-B — the routing layer never peeks at geometry), compute min-max
relay routing, then run duty cycles with CBR traffic and report active
time, throughput and energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .. import obs as _obs
from .. import validate as _validate
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..mac.base import SENSOR_RANGE_M, SIDE_M, ClusterPhy, MacTimings, build_cluster_phy
from ..mac.pollmac import PollingClusterMac
from ..metrics.availability import AvailabilityReport, availability_report
from ..metrics.degradation import DegradationReport, degradation_report
from ..metrics.staleness import StalenessReport, staleness_report
from ..radio.packet import DEFAULT_SIZES
from ..routing.warmcache import SolverCache
from ..sim.kernel import Simulator
from ..topology.cluster import Cluster
from ..topology.deployment import Deployment, uniform_square
from ..topology.recluster import StalenessTrigger, discovered_cluster
from ..traffic.cbr import attach_cbr_sources

__all__ = ["PollingSimConfig", "PollingSimResult", "run_polling_simulation"]


@dataclass(frozen=True)
class PollingSimConfig:
    """Everything a polling-cluster run needs (paper Sec. VI defaults).

    The deployment and radio are the Sec. VI setup every harness shares:
    :data:`~repro.mac.base.SIDE_M`, :data:`~repro.mac.base.SENSOR_RANGE_M`
    and the PHY's own bitrate, frame sizes and energy model."""

    n_sensors: int = 30
    rate_bps: float = 20.0  # per-sensor data generating rate
    cycle_length: float = 10.0
    n_cycles: int = 10
    seed: int = 0
    max_group_size: int = 2
    frame_error_rate: float = 0.0
    use_sectors: bool = False  # Sec. IV operation: sectors polled in turn
    timings: MacTimings = MacTimings()
    # Fault injection (None = the exact pre-fault code path, bit for bit).
    # A non-empty plan also arms the head's failure detection, with the
    # dead_after_misses threshold below.
    fault_plan: FaultPlan | None = None
    retry_limit: int | None = 12
    dead_after_misses: int = 2
    # Proactive survivability: k node-disjoint backup paths per sensor for
    # in-cycle failover.  0 (the default) is the exact pre-survivability
    # code path, bit for bit.
    backup_k: int = 0
    # Online re-clustering under churn/mobility (DESIGN.md §11): the head
    # re-forms whenever this trigger fires (a trigger with only
    # period_cycles set re-forms on a fixed cadence).  None keeps the purely
    # reactive machinery (announced leaves still repair; joiners are never
    # admitted); with no dynamic plan it is the exact pre-churn code path,
    # bit for bit.
    recluster: StalenessTrigger | None = None
    # Slot execution engine (DESIGN.md §12): "vector" (default) batches
    # clean polling slots into closed-form numpy updates, "scalar" forces
    # the event-at-a-time oracle.  The two are bit-identical by contract.
    engine: str = "vector"
    # Cross-trial solver warm-start cache (DESIGN.md §12): pass one
    # SolverCache to every trial of a sweep and grid points sharing a
    # topology fingerprint reuse the Dinic routing + backup solves
    # bit-for-bit instead of recomputing them.  None (the default) solves
    # cold, exactly as before.
    solver_cache: SolverCache | None = None


@dataclass
class PollingSimResult:
    """Measurements from one run."""

    config: PollingSimConfig
    phy: ClusterPhy
    mac: PollingClusterMac
    elapsed: float
    packets_generated: int
    packets_delivered: int
    active_fraction: np.ndarray  # per sensor
    injector: FaultInjector | None = None  # present when a fault plan ran
    violations: list[_validate.InvariantViolation] = field(default_factory=list)
    """Invariant violations the runtime monitor recorded during this run
    (always empty for a healthy run; populated in ``warn`` mode — ``strict``
    raises instead, see :mod:`repro.validate`)."""
    telemetry: "_obs.Telemetry | None" = None
    """The collector the run was traced into (activated around the call
    with ``obs.use(...)``); ``None`` for untraced runs."""

    @property
    def degradation(self) -> DegradationReport:
        """Graceful-degradation view of the run (meaningful for faulted
        runs; trivially perfect for fault-free ones)."""
        return degradation_report(self.mac, self.injector)

    @property
    def availability(self) -> AvailabilityReport:
        """Recovery-latency view: per-fault time-to-recover, delivery
        continuity, and the failover/repair counters (see
        :mod:`repro.metrics.availability`)."""
        return availability_report(
            self.mac, self.injector, self.config.cycle_length
        )

    @property
    def staleness(self) -> StalenessReport:
        """Dynamic-network view: plan staleness, re-cluster cost, and
        coverage under churn (see :mod:`repro.metrics.staleness`;
        trivially fresh for static runs)."""
        return staleness_report(
            self.mac, self.injector, self.config.cycle_length
        )

    @property
    def mean_active_fraction(self) -> float:
        return float(self.active_fraction.mean()) if self.active_fraction.size else 0.0

    @property
    def throughput_ratio(self) -> float:
        """Delivered / eligible.  Packets generated during the final
        in-progress cycle haven't had a polling opportunity yet, so the
        denominator excludes anything still queued at the sensors."""
        eligible = self.packets_delivered + self.mac.packets_failed
        if eligible == 0:
            return 1.0
        return self.packets_delivered / eligible

    @property
    def throughput_bps(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.packets_delivered * DEFAULT_SIZES.data / self.elapsed

    @property
    def offered_bps(self) -> float:
        return self.config.rate_bps * self.config.n_sensors

    def duty_fraction(self) -> float:
        """Cluster-level duty-cycle fraction: duty time / cycle time."""
        stats = self.mac.cycle_stats
        if not stats:
            return 0.0
        total_duty = sum(s.duty_time for s in stats)
        return total_duty / self.elapsed


def run_polling_simulation(
    config: PollingSimConfig = PollingSimConfig(),
    deployment: Deployment | None = None,
) -> PollingSimResult:
    """Run the full DES polling stack and collect the paper's metrics.

    Telemetry: a :class:`repro.obs.Telemetry` collector the caller
    activated (``with obs.use(tel): ...``) traces the run and is returned
    on :attr:`PollingSimResult.telemetry` — that is also how sweeps
    aggregate several runs into one collector.  With none active the run
    takes the exact untraced code path, bit for bit.
    """
    monitor = _validate.MONITOR
    mark = monitor.mark()
    faulted = config.fault_plan is not None and not config.fault_plan.is_empty
    tel = _obs.current()
    traced = tel.enabled
    run_span = None
    if traced:
        run_span = tel.begin(
            "run",
            "polling-sim",
            perf_counter(),
            clock="wall",
            seed=config.seed,
            n_sensors=config.n_sensors,
            n_cycles=config.n_cycles,
            faulted=faulted,
        )
        # Cycle spans parent on the collector's root; point it at this
        # run so repeated runs under one ambient collector nest right.
        tel.root = run_span
    sim = Simulator()
    if traced:
        sim.telemetry = tel
    dep = deployment or uniform_square(
        config.n_sensors,
        seed=config.seed,
        side=SIDE_M,
        comm_range=SENSOR_RANGE_M,
    )
    # Churn pre-allocation: the plan's joiners get PHY slots (appended
    # after the deployed sensors, in plan order) so ids, frames and
    # energy meters exist from t=0; their radios stay asleep and they
    # are excluded from planning until their join fires and a re-form
    # admits them.  with_positions() returns a fresh Deployment, so the
    # cached adjacency can never go stale.
    plan = config.fault_plan
    joiner_ids: list[int] = []
    if plan is not None and plan.joins:
        base_n = dep.n_sensors
        joiner_ids = list(range(base_n, base_n + len(plan.joins)))
        join_pos = np.array([j.position for j in plan.joins], dtype=np.float64)
        dep = dep.with_positions(np.vstack([dep.positions, join_pos]))
    geo_cluster = Cluster.from_deployment(dep)
    phy = build_cluster_phy(
        sim,
        geo_cluster,
        sensor_range_m=SENSOR_RANGE_M,
        frame_error_rate=config.frame_error_rate,
        error_seed=config.seed,
    )
    # Discover connectivity from the radio (Sec. V-B), then route on
    # what was heard, not on the geometric disc the deployment assumed.
    phy.cluster = discovered_cluster(phy)
    # Fault injection arms first so bursty-link loss shapes the run from
    # t=0; an empty/absent plan schedules nothing and draws no RNG, keeping
    # the fault-free path bit-for-bit identical.
    injector: FaultInjector | None = None
    if faulted:
        injector = FaultInjector(
            sim,
            phy,
            config.fault_plan,
            base_seed=config.seed,
            cycle_length=config.cycle_length,
            n_cycles=config.n_cycles,
            joiner_ids=joiner_ids or None,
        )
    mac = PollingClusterMac(
        phy,
        cycle_length=config.cycle_length,
        max_group_size=config.max_group_size,
        timings=config.timings,
        use_sectors=config.use_sectors,
        retry_limit=config.retry_limit,
        dead_after_misses=config.dead_after_misses if faulted else None,
        backup_k=config.backup_k,
        absent=set(joiner_ids) or None,
        recluster=config.recluster,
        engine=config.engine,
        solver_cache=config.solver_cache,
    )
    if injector is not None:
        # Churn events (join/leave) report straight to the head MAC; the
        # binding is a plain attribute set, so static plans are untouched.
        injector.membership_listener = mac
    sources = attach_cbr_sources(
        sim,
        mac.sensors,
        rate_bps=config.rate_bps,
        seed=config.seed,
        start_ats={
            node: join.at for node, join in zip(joiner_ids, plan.joins)
        }
        if joiner_ids
        else None,
    )
    mac.start(config.n_cycles)
    sim.run(until=config.n_cycles * config.cycle_length)
    phy.finalize()
    packets_generated = sum(s.generated for s in sources)
    if monitor.enabled:
        hint = (
            f"PollingSimConfig(seed={config.seed}, n_sensors={config.n_sensors}, "
            f"n_cycles={config.n_cycles}, faults={'yes' if faulted else 'no'})"
        )
        _validate.check_delivered_stream(
            mac.delivered_packets(), packets_generated, sim_time=sim.now, hint=hint
        )
    if traced:
        # Post-finalize ground truth the inspector reconciles against
        # metrics/energy.py (sensors in local order, head last).
        tel.extras["energy_per_radio_j"] = [
            trx.meter.consumed_j for trx in phy.transceivers
        ]
        # Accumulating counter (not a gauge): trials that run several
        # sims sum their energy, and sweep-level merges stay lossless —
        # the campaign monitor MAD-scans this for energy outliers.
        tel.metrics.counter("mac.energy_j").inc(
            float(sum(tel.extras["energy_per_radio_j"]))
        )
        tel.extras["seed"] = config.seed
        tel.extras["n_sensors"] = config.n_sensors
        tel.finish(
            run_span,
            perf_counter(),
            sim_time=sim.now,
            generated=packets_generated,
            delivered=mac.packets_delivered,
        )
    return PollingSimResult(
        config=config,
        phy=phy,
        mac=mac,
        elapsed=sim.now,
        packets_generated=packets_generated,
        packets_delivered=mac.packets_delivered,
        active_fraction=phy.sensor_active_fraction(),
        injector=injector,
        violations=monitor.since(mark),
        telemetry=tel if traced else None,
    )

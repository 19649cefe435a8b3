"""The cluster-head polling MAC on the discrete-event PHY (paper Sec. II).

One duty cycle, exactly as the paper describes it:

1. Sensors wake at the time the head announced last cycle; the head
   broadcasts a **wakeup/inquiry** message.
2. **Ack collection**: the head polls the start sensors of a set-cover of
   relaying paths (Sec. V-F); relays merge their own ack (+ packet count)
   into the forwarded ack packet.
3. **Slotted data polling**: each slot begins with the head broadcasting a
   poll message naming the slot's transmissions (the slot "clock" of the
   pipelined system); polled sensors transmit, named receivers listen, and
   everyone else idles for the slot.  The head knows which slot each packet
   should arrive in, detects losses there, and simply re-polls — the
   on-line Table-1 algorithm driven by *real* PHY deliveries.
4. The head broadcasts a **sleep** message carrying the next wake time and
   the cluster sleeps out the rest of the cycle.

No link-level acknowledgments, no sensor-originated control traffic, no
carrier sense: all coordination is the head's polls, which is the entire
point of the design.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .. import obs as _obs
from .. import validate as _validate
from ..core.ack import plan_ack_collection
from ..core.online import FailoverEvent, OnlinePollingScheduler
from ..core.requests import RequestState
from ..core.sectors import partition_into_sectors
from ..interference.physical import PhysicalModelOracle
from ..radio.packet import BROADCAST_ADDR, DEFAULT_SIZES, Frame, FrameSizes, FrameType
from ..routing.backup import BackupRoutes, compute_backup_routes
from ..routing.minmax import FlowSolution, solve_min_max_load
from ..routing.warmcache import SolverCache
from ..routing.paths import RoutingPlan
from ..routing.repair import prune_dead_nodes, repair_routing
from ..routing.rotation import PathRotator
from ..sim.process import Process, Timeout
from ..sim.units import transmission_time
from ..topology.cluster import HEAD, Cluster
from ..topology.recluster import (
    StalenessTracker,
    StalenessTrigger,
    discovered_cluster,
)
from .base import ClusterPhy, MacTimings
from .vector_engine import maybe_vector_engine

__all__ = [
    "AppPacket",
    "PollInstruction",
    "PollingSensorAgent",
    "PollingClusterMac",
    "CycleStats",
    "Replan",
    "phy_truth_oracle",
]

_packet_seq = itertools.count()


@dataclass(frozen=True)
class AppPacket:
    """An application data unit generated at a sensor."""

    origin: int
    seq: int
    created: float


@dataclass(frozen=True)
class PollInstruction:
    """One entry of a poll message: who sends what to whom this slot."""

    sender: int  # scheduler node ids (HEAD = -1)
    receiver: int
    request_id: int
    hop_index: int


def phy_truth_oracle(phy: ClusterPhy, max_group_size: int = 2) -> PhysicalModelOracle:
    """The oracle matching the medium's actual decode rule exactly.

    ``min(signal) >= sensitivity`` is folded in by raising the effective
    noise floor to ``sensitivity / beta`` (conservative under interference,
    never optimistic), so a link the oracle approves always decodes on a
    quiet channel — the property the Table-1 algorithm needs.
    """
    medium = phy.medium
    effective_noise = max(medium.noise, medium.rx_sensitivity / medium.beta)
    power = medium.rx_power
    if phy.index_map is not None:
        # Shared-medium operation: restrict to this cluster's nodes (local
        # layout: sensors then head).  Other clusters' interference is
        # invisible to the head — exactly the Sec. V-G problem the
        # coordination mechanisms exist to solve.
        idx = np.asarray(phy.index_map)
        power = power[np.ix_(idx, idx)]
    return PhysicalModelOracle(
        power=power,
        beta=medium.beta,
        noise=effective_noise,
        max_group_size=max_group_size,
    )


class PollingSensorAgent:
    """A basic sensor: dumb, poll-driven, asleep whenever allowed."""

    def __init__(
        self,
        phy: ClusterPhy,
        sensor: int,
        sizes: FrameSizes,
        timings: MacTimings,
        cluster_id: int = 0,
    ):
        self.phy = phy
        self.sensor = sensor
        self.sizes = sizes
        self.timings = timings
        self.cluster_id = cluster_id
        self.trx = phy.trx(sensor)
        self.own_queue: deque[AppPacket] = deque()
        self.assigned: dict[int, AppPacket] = {}
        self.relay_buffer: dict[int, AppPacket] = {}
        self.ack_buffer: dict[int, dict[int, int]] = {}
        self.cycle_quota = 0  # own packets admitted to the current cycle
        self.packets_sent = 0
        # Blacklist propagation (head wakeup broadcasts): origins declared
        # dead by the head; relays refuse to buffer their packets.
        self.known_dead: set[int] = set()
        self.packets_purged = 0
        self.trx.on_receive(self._on_frame)

    # -- application side ---------------------------------------------------------

    def generate_packet(self) -> None:
        self.own_queue.append(
            AppPacket(origin=self.sensor, seq=next(_packet_seq), created=self.phy.sim.now)
        )

    @property
    def pending_count(self) -> int:
        return len(self.own_queue)

    # -- frame handling -----------------------------------------------------------

    def _on_frame(self, frame: Frame, rx_power: float) -> None:
        payload = frame.payload
        if isinstance(payload, dict) and payload.get("cluster", self.cluster_id) != self.cluster_id:
            return  # another cluster's traffic overheard on a shared channel
        if frame.ftype is FrameType.POLL:
            self._on_poll(frame.payload)
        elif frame.ftype is FrameType.DATA:
            self._on_data(frame.payload)
        elif frame.ftype is FrameType.ACK_REPORT:
            self._on_ack(frame.payload)
        elif frame.ftype is FrameType.SLEEP:
            self._on_sleep(frame.payload)
        elif frame.ftype is FrameType.WAKEUP:
            self._on_wakeup(frame.payload)

    def _on_wakeup(self, payload=None) -> None:
        """Freeze this cycle's packet quota: packets generated after the
        wakeup inquiry wait for the next cycle, so the count acked to the
        head exactly matches what the sensor will answer polls with.

        The wakeup may carry the head's blacklist of dead sensors; relays
        remember it and drop traffic originating from blacklisted nodes
        (stale in-flight packets of a node declared dead mid-recovery).
        """
        self.assigned.clear()
        self.relay_buffer.clear()
        self.ack_buffer.clear()
        self.cycle_quota = len(self.own_queue)
        if isinstance(payload, dict) and "blacklist" in payload:
            self.known_dead = set(payload["blacklist"])

    def _on_poll(self, payload) -> None:
        frame = self.build_response(payload)
        if frame is None:
            return
        self.phy.sim.schedule(
            self.timings.turnaround, self._transmit_if_possible, frame
        )

    def build_response(self, payload) -> Frame | None:
        """Decode a poll and build this sensor's response frame, if any.

        Shared between the scalar event path (:meth:`_on_poll` schedules the
        frame after the turnaround) and the vector slot engine (which calls
        this directly at the poll-decode instant): queue/quota side effects
        and frame construction order are identical in both engines.
        """
        phase: str = payload["phase"]
        instructions: list[PollInstruction] = payload["instructions"]
        my_sends = [ins for ins in instructions if ins.sender == self.sensor]
        if not my_sends:
            return None
        ins = my_sends[0]  # node-disjoint slots: at most one role per sensor
        if phase == "data":
            packet = self._packet_for(ins)
            if packet is None:
                return None  # upstream loss: nothing to relay; stay silent
            return Frame(
                ftype=FrameType.DATA,
                src=self.phy.phy_index(self.sensor),
                dst=ins.receiver,
                size_bytes=self.sizes.data,
                payload={"instruction": ins, "packet": packet, "cluster": self.cluster_id},
            )
        # ack phase
        report = dict(self.ack_buffer.get(ins.request_id, {}))
        if ins.hop_index == 0:
            report = {}
        report[self.sensor] = self.cycle_quota
        return Frame(
            ftype=FrameType.ACK_REPORT,
            src=self.phy.phy_index(self.sensor),
            dst=ins.receiver,
            size_bytes=self.sizes.ack_report,
            payload={"instruction": ins, "counts": report, "cluster": self.cluster_id},
        )

    def _packet_for(self, ins: PollInstruction):
        if ins.hop_index == 0:
            pkt = self.assigned.get(ins.request_id)
            if pkt is None:
                if not self.own_queue or self.cycle_quota <= 0:
                    return None  # head believes we have more than we do
                pkt = self.own_queue.popleft()
                self.cycle_quota -= 1
                self.assigned[ins.request_id] = pkt
            return pkt
        return self.relay_buffer.get(ins.request_id)

    def _transmit_if_possible(self, frame: Frame) -> None:
        if self.trx.dead:
            # A dead radio can never reach this path (fail-stop puts it to
            # sleep); if it does, the fault plan and MAC state have diverged.
            _validate.MONITOR.record(
                "mac.transmit-while-dead",
                f"sensor {self.sensor} asked to transmit {frame.ftype.name} "
                "after fail-stop death",
                sim_time=self.phy.sim.now,
                nodes=(self.sensor,),
            )
            return
        if not self.trx.is_sleeping and not self.trx.is_transmitting:
            self.trx.transmit(frame)
            if frame.ftype is FrameType.DATA:
                self.packets_sent += 1

    def _on_data(self, payload) -> None:
        ins: PollInstruction = payload["instruction"]
        if ins.receiver == self.sensor:
            packet = payload["packet"]
            if packet.origin in self.known_dead:
                self.packets_purged += 1  # don't relay for a dead origin
                return
            self.relay_buffer[ins.request_id] = packet

    def _on_ack(self, payload) -> None:
        ins: PollInstruction = payload["instruction"]
        if ins.receiver == self.sensor:
            self.ack_buffer[ins.request_id] = dict(payload["counts"])

    def _on_sleep(self, payload) -> None:
        """Sleep until the announced wake time.

        ``members`` (optional) restricts the order to a subset — sector
        operation puts one sector to bed while later sectors (already awake
        for their windows) keep listening.  ``wake_map`` instead carries a
        personal wake time per sensor (the sector window announcement);
        sensors without an entry stay awake.
        """
        wake_map = payload.get("wake_map")
        if wake_map is not None:
            t = wake_map.get(self.sensor)
            if t is not None and t > self.phy.sim.now and not self.trx.is_sleeping:
                self.trx.sleep()
                self.phy.sim.at(t, self.trx.wake)
            return
        members = payload.get("members")
        if members is not None and self.sensor not in members:
            return
        wake_at: float = payload["wake_at"]
        if payload.get("end_of_cycle", True):
            self.assigned.clear()
            self.relay_buffer.clear()
            self.ack_buffer.clear()
        if wake_at <= self.phy.sim.now:
            return  # the announced wake time already passed (overrun cycle)
        if not self.trx.is_sleeping:
            self.trx.sleep()
            self.phy.sim.at(wake_at, self.trx.wake)


@dataclass(frozen=True)
class Replan:
    """One routing plan the head put in force, and why (DESIGN.md §11).

    ``cause`` is ``"initial"``, ``"repair"``, ``"recluster"``,
    ``"adoption"`` or ``"field-reform"``.  ``dropped_pending`` maps each
    sensor this plan newly cut off to the packets queued at it.
    """

    time: float
    cause: str
    routing: FlowSolution = field(compare=False)
    excluded: tuple[int, ...] = ()  # blacklisted, departed and absent
    unreachable: tuple[int, ...] = ()  # survivors left without a path
    dropped_pending: dict[int, int] = field(default_factory=dict)
    reason: str | None = None  # the staleness trigger behind a re-cluster
    admitted: tuple[int, ...] = ()  # joiners admitted / orphans adopted
    roster_bytes: int = 0  # announcement charged to the next wakeup

    @property
    def newly_unreachable(self) -> tuple[int, ...]:
        return tuple(self.dropped_pending)


@dataclass
class CycleStats:
    """What one duty cycle accomplished."""

    cycle_index: int
    started_at: float
    duty_time: float
    ack_slots: int
    data_slots: int
    packets_delivered: int
    packets_offered: int
    retransmissions: int


class PollingClusterMac:
    """The cluster head side: orchestrates duty cycles over the PHY.

    With ``failure_detection`` enabled the head additionally recovers from
    node deaths: after each cycle it cross-examines the phase outcomes —
    nodes on any delivered path (or whose ack count arrived) are proven
    alive; nodes implicated only in failures accumulate suspicion — and a
    node suspect for ``dead_after_misses`` consecutive cycles is declared
    dead.  Declaring a death blacklists the node, repairs routing around it
    at the duty-cycle boundary (partial coverage if survivors become
    unreachable), and propagates the blacklist in the next wakeup broadcast.
    Detection is off by default so fault-free runs are bit-for-bit identical
    to the pre-recovery MAC.
    """

    def __init__(
        self,
        phy: ClusterPhy,
        cycle_length: float = 10.0,
        max_group_size: int = 2,
        sizes: FrameSizes = DEFAULT_SIZES,
        timings: MacTimings = MacTimings(),
        routing: FlowSolution | None = None,
        max_slots_per_phase: int = 200_000,
        retry_limit: int | None = 12,
        use_sectors: bool = False,
        slack_factor: float = 1.5,
        cluster_id: int = 0,
        failure_detection: bool = False,
        dead_after_misses: int = 2,
        backup_k: int = 0,
        absent: set[int] | None = None,
        recluster: str = "off",
        recluster_trigger: StalenessTrigger | None = None,
        engine: str = "vector",
        solver_cache: "SolverCache | None" = None,
    ):
        if engine not in ("scalar", "vector"):
            raise ValueError(f"engine must be 'scalar' or 'vector', got {engine!r}")
        self.engine = engine
        # Cross-phase geometry cache for the vector engine, keyed by
        # listening-roster bytes (see vector_engine._GeomEntry).
        self._vector_geom: dict = {}
        # Engine mix over the whole run (how many slots replayed in batch
        # mode vs fell back to the event path) — plain counters, kept even
        # untraced so sweeps and parity tests can report coverage.
        self.vector_slots = 0
        self.scalar_slots = 0
        # Why phases that *requested* the vector engine ran scalar slots
        # anyway (reason -> per-phase count; see maybe_vector_engine).
        self.engine_fallbacks: dict[str, int] = {}
        self.phy = phy
        self.sim = phy.sim
        self.cycle_length = cycle_length
        self.sizes = sizes
        self.timings = timings
        self.max_slots_per_phase = max_slots_per_phase
        self.retry_limit = retry_limit
        self.use_sectors = use_sectors
        self.slack_factor = slack_factor
        self.cluster_id = cluster_id
        self.failure_detection = failure_detection
        if dead_after_misses < 1:
            raise ValueError(f"dead_after_misses must be >= 1, got {dead_after_misses}")
        self.dead_after_misses = dead_after_misses
        if backup_k < 0:
            raise ValueError(f"backup_k must be >= 0, got {backup_k}")
        self.backup_k = backup_k
        if recluster not in ("off", "staleness", "periodic"):
            raise ValueError(
                f"recluster must be 'off', 'staleness' or 'periodic', "
                f"got {recluster!r}"
            )
        self.recluster = recluster
        self.packets_failed = 0
        # Dynamic membership (DESIGN.md §11): sensors the plan pre-allocated
        # but that have not powered up yet (absent), announced departures,
        # joiners awaiting admission at the next re-form, and departures not
        # yet repaired around.  All default-empty, so a static run carries
        # only empty-set unions through the hot path.
        self.absent: set[int] = set(absent or ())
        self.departed: set[int] = set()
        self.pending_joins: set[int] = set()
        self._new_departures: set[int] = set()
        # The last re-form's roster announcement, charged to the next wakeup
        # once (zero otherwise, so static wakeups keep their exact size).
        self._reform_roster_bytes = 0
        self._staleness: StalenessTracker | None = None
        if recluster != "off":
            trigger = recluster_trigger
            if trigger is None:
                trigger = (
                    StalenessTrigger()
                    if recluster == "staleness"
                    else StalenessTrigger(
                        membership_delta=0, repair_fallbacks=0, period_cycles=5
                    )
                )
            if recluster == "periodic" and trigger.period_cycles <= 0:
                raise ValueError(
                    "recluster='periodic' needs a trigger with period_cycles > 0"
                )
            self._staleness = StalenessTracker(trigger=trigger)
        # Recovery state: the topology the head currently plans on (pruned
        # after each repair), declared-dead sensors, survivors that lost
        # their last route, and per-node consecutive-suspect-cycle counters.
        # Joiner slots exist in the PHY from t=0 but must not attract routes
        # until admitted; prune them like the dead.
        self.active_cluster = prune_dead_nodes(phy.cluster, self.absent)
        self.blacklisted: set[int] = set()
        self.unreachable: set[int] = set()
        self._suspect_misses: dict[int, int] = {}
        self.oracle = phy_truth_oracle(phy, max_group_size)
        self.sensors = [
            PollingSensorAgent(phy, i, sizes, timings, cluster_id=cluster_id)
            for i in range(phy.n_sensors)
        ]
        self.head_trx = phy.trx(HEAD)
        self.head_trx.on_receive(self._head_on_frame)
        # Routing is computed once from average traffic (Sec. III-A: "run the
        # network flow algorithm once every long time period").  A sweep's
        # solver cache answers repeat topologies bit-for-bit from memory
        # (the solve is deterministic), so trials sharing a deployment skip
        # the Dinic work entirely (DESIGN.md §12).
        self.solver_cache = solver_cache
        self._adopt_oracle()
        self.routing = routing or self._solve_routing()
        self.rotator = PathRotator(self.routing)
        self.ack_plan = plan_ack_collection(self.active_cluster, self.routing.routing_plan())
        # Proactive survivability (backup_k > 0): k-disjoint backup paths
        # per sensor, recomputed alongside every routing (re-)solve, handed
        # to the data-phase scheduler for in-cycle failover.
        self.backups = self._compute_backups()
        # The run's records, each fact written once: every plan put in force,
        # every in-cycle failover and every (arrival time, packet) the head
        # accepted.  Counters and metrics reports are reductions over them.
        self.replans: list[Replan] = [
            Replan(self.sim.now, "initial", self.routing, tuple(sorted(self._excluded())))
        ]
        self.failovers: list[FailoverEvent] = []
        self.deliveries: list[tuple[float, AppPacket]] = []
        self.halted = False
        # True while the head process is inside a duty cycle (between the
        # wakeup broadcast and the post-sleep idle wait).  External
        # coordinators (field-level handoff) consult it to defer roster
        # surgery on a head that is mid-cycle — e.g. token-mode windows that
        # straddle the shared boundary — instead of yanking the PHY out from
        # under a running phase.
        self.mid_cycle = False
        # Sector operation (Sec. IV): fixed relay trees per sector, polled in
        # turn; sensors sleep outside the ack phase and their own window.
        self.partition = None
        if use_sectors:
            self.partition = partition_into_sectors(self.routing, oracle=self.oracle)
        # Per-slot reception buffers the head process reads.
        self._arrived_requests: set[int] = set()
        self._ack_counts: dict[int, int] = {}
        self._phase_schedulers: list[tuple[str, OnlinePollingScheduler]] = []
        self.cycle_stats: list[CycleStats] = []
        self.process: Process | None = None
        # Telemetry (repro.obs): the ambient collector is cached once and
        # every emission below guards on _tel_enabled, so runs without an
        # active collector stay bit-for-bit identical to the untraced MAC.
        self._tel = _obs.current()
        self._tel_enabled = self._tel.enabled
        self._cycle_span: "_obs.Span | None" = None
        if self._tel_enabled:
            self._tel.metrics.gauge("mac.max_group_size").set(
                self.oracle.max_group_size
            )

    def _adopt_oracle(self) -> None:
        """Hook the freshly built SINR oracle into the sweep's shared memo
        (no-op without a cache; see ``SolverCache.adopt_oracle``)."""
        if self.solver_cache is not None:
            self.solver_cache.adopt_oracle(self.oracle)

    def _solve_routing(self) -> FlowSolution:
        """The initial min-max solve, via the sweep's warm-start cache when
        one is attached (later re-plans go through :meth:`_replan`).

        Routing uses >=1 packet per reachable sensor so each gets a path;
        sensors with no multi-hop path to the head (strays at cluster
        borders) are planned at zero packets — they cannot be served.
        """
        cluster = self.active_cluster
        hops = cluster.min_hop_counts()
        packets = np.where(np.isfinite(hops), np.maximum(cluster.packets, 1), 0)
        planning = cluster.with_packets(packets.astype(np.int64))
        if self.solver_cache is not None:
            return self.solver_cache.routing_for(planning)
        return solve_min_max_load(planning)

    def _compute_backups(self) -> BackupRoutes | None:
        if self.backup_k <= 0:
            return None
        if self.solver_cache is not None:
            return self.solver_cache.backups_for(self.routing, self.backup_k)
        return compute_backup_routes(self.routing, self.backup_k)

    # -- public API -----------------------------------------------------------------

    def start(self, n_cycles: int) -> Process:
        self.process = Process(self.sim, self._run(n_cycles), name="polling-head")
        return self.process

    def halt(self) -> None:
        """Fail-stop cluster-head crash: radio dark, duty cycle killed.

        Sensors are left exactly as the crash finds them — awake sensors
        keep listening to a head that will never poll again, sleeping ones
        wake on their last announced schedule.  Recovery, if any, comes from
        outside (see head failover in :mod:`repro.net.multicluster_sim`).
        """
        self.halted = True
        self.head_trx.fail()
        if self.process is not None:
            self.process.stop()

    def adopt_sensors(
        self,
        new_phy: ClusterPhy,
        agents: list[PollingSensorAgent],
        blacklisted: set[int] = frozenset(),
        departed: set[int] = frozenset(),
        absent: set[int] = frozenset(),
        suspect_misses: dict[int, int] | None = None,
    ) -> int:
        """Take over orphaned sensors after a neighbor head's crash.

        *new_phy* is this cluster's PHY extended with the orphans' existing
        transceivers (members keep their local ids, orphans append, head
        still last) and *agents* the full roster: this head's own agents,
        then fresh ones for the orphans — constructing those already
        re-bound each orphan radio's receive callback away from the dead
        cluster.  The exclusion evidence arrives remapped to the new local
        ids with the dead head's included, so an orphan the dead head had
        blacklisted stays blacklisted here.  Orphans out of this head's
        reach come back unreachable and are logged like any other stranded
        sensor.  Returns the number of orphans adopted.

        Unlike :meth:`reform_membership`, an adoption charges no roster
        announcement to the next wakeup (DESIGN.md §9).
        """
        orphans = tuple(range(len(self.sensors), len(agents)))
        self._take_roster(
            new_phy, agents, blacklisted, departed, absent, suspect_misses
        )
        self._replan(new_phy.cluster, "adoption", admitted=orphans)
        return len(orphans)

    def reform_membership(
        self,
        new_phy: ClusterPhy,
        agents: list[PollingSensorAgent],
        blacklisted: set[int] = frozenset(),
        departed: set[int] = frozenset(),
        absent: set[int] = frozenset(),
        suspect_misses: dict[int, int] | None = None,
    ) -> None:
        """Replace this head's roster after a field-level re-form.

        A cross-cluster handoff both shrinks the source and grows the
        destination, so local ids may be reassigned wholesale: *agents* is
        the complete new sensor list (fresh agents holding the transplanted
        queues with re-stamped origins whenever any id shifted), and the
        exclusion state — *blacklisted*, *departed*, *absent*,
        *suspect_misses* — arrives already remapped to the new local ids by
        the coordinator, which owns the global-id view.  Carrying that
        evidence across the re-form is deliberate: a sensor's suspicion or
        blacklist entry follows it to its new head instead of resetting,
        so a dying node cannot launder its record by drifting over a
        Voronoi border (the per-cluster :meth:`_recluster` clears suspicion
        because *its* topology changed; here the sensor's evidence moved
        with the sensor).  The next wakeup re-announces the roster.
        """
        self._take_roster(
            new_phy, agents, blacklisted, departed, absent, suspect_misses
        )
        self._replan(new_phy.cluster, "field-reform")
        if self._tel_enabled:
            self._tel.metrics.counter("mac.field_reforms").inc()

    def _take_roster(
        self,
        new_phy: ClusterPhy,
        agents: list[PollingSensorAgent],
        blacklisted: set[int],
        departed: set[int],
        absent: set[int],
        suspect_misses: dict[int, int] | None,
    ) -> None:
        """Install a roster a field coordinator rebuilt (adoption, re-form).

        A member whose agent object survived kept its local id; any other
        id may now name a different sensor, so per-id state the evidence
        does not carry — unreachability and pending joins — survives only
        for kept ids.  Departures need no carrying either: the re-plan that
        follows prunes every excluded node.
        """
        kept = {
            i for i, (new, old) in enumerate(zip(agents, self.sensors)) if new is old
        }
        self.phy = new_phy
        self.sensors = list(agents)
        self.blacklisted = set(blacklisted)
        self.departed = set(departed)
        self.absent = set(absent)
        self._suspect_misses = dict(suspect_misses or {})
        self.unreachable &= kept
        self.pending_joins &= kept
        self._new_departures = set()
        self.oracle = phy_truth_oracle(new_phy, self.oracle.max_group_size)
        self._adopt_oracle()

    def _replan(
        self,
        topology: Cluster,
        cause: str,
        reason: str | None = None,
        admitted: tuple[int, ...] = (),
    ) -> Replan:
        """Re-plan routing over *topology*: the one sequence every path runs.

        Boundary repair, re-form, adoption and field re-form all land here.
        Every excluded node is pruned and demand migrates through
        :func:`~repro.routing.repair.repair_routing` (through the attached
        :class:`~repro.routing.warmcache.SolverCache` when there is one);
        survivors left without a path are planned at zero — partial
        coverage instead of a routing failure.  The :class:`Replan` record
        notes which sensors this re-plan cut off and the packets pending at
        them, and a re-form's roster announcement (2 bytes per present
        member).  Rotation, ack cover, backups and the sector partition are
        then rebuilt on the new plan, which is checked against the
        dynamic-membership invariant.  Returns the record.
        """
        announce = cause in ("recluster", "field-reform")
        excluded = self._excluded()
        result = repair_routing(
            topology.with_packets(np.maximum(topology.packets, 1)),
            excluded,
            cache=self.solver_cache,
        )
        # Pending packets are attributed to the re-plan that *first* cut
        # the sensor off; keying on newly unreachable sensors means one
        # stranded across two consecutive re-plans is counted by exactly
        # one of them (see reconcile_dropped_demand).
        newly_unreachable = sorted(set(result.uncovered) - self.unreachable)
        self.active_cluster = result.cluster
        self.unreachable = set(result.uncovered)
        self.routing = result.solution
        record = Replan(
            time=self.sim.now,
            cause=cause,
            routing=self.routing,
            excluded=tuple(sorted(excluded)),
            unreachable=tuple(sorted(self.unreachable)),
            dropped_pending={i: self.sensors[i].pending_count for i in newly_unreachable},
            reason=reason,
            admitted=admitted,
            roster_bytes=2 * (topology.n_sensors - len(excluded)) if announce else 0,
        )
        self.replans.append(record)
        if announce:
            self._reform_roster_bytes = record.roster_bytes
        self.rotator = PathRotator(self.routing)
        self.ack_plan = plan_ack_collection(
            self.active_cluster, self.routing.routing_plan()
        )
        self.backups = self._compute_backups()
        if self.partition is not None:
            self.partition = partition_into_sectors(self.routing, oracle=self.oracle)
        hint = f"cluster {self.cluster_id} {cause} re-plan #{len(self.replans) - 1}"
        _validate.check_dynamic_membership(
            self.routing, excluded, sim_time=self.sim.now, hint=hint
        )
        return record

    # -- reductions over the run's records ---------------------------------------------

    @property
    def route_repairs(self) -> int:
        """Boundary repairs, adoptions and field re-forms."""
        causes = ("repair", "adoption", "field-reform")
        return sum(r.cause in causes for r in self.replans)

    @property
    def reclusters(self) -> int:
        return sum(r.cause == "recluster" for r in self.replans)

    @property
    def adoptions(self) -> int:
        """Orphans adopted from crashed neighbour heads."""
        return sum(len(r.admitted) for r in self.replans if r.cause == "adoption")

    @property
    def in_cycle_failovers(self) -> int:
        return len(self.failovers)

    @property
    def packets_delivered(self) -> int:
        return len(self.deliveries)

    def delivered_packets(self) -> list[AppPacket]:
        return [packet for _, packet in self.deliveries]

    # -- dynamic membership (churn) ---------------------------------------------------

    def _excluded(self) -> set[int]:
        """Everyone the head must not plan demand for or through."""
        return self.blacklisted | self.departed | self.absent

    def notify_join(self, node: int) -> None:
        """A pre-allocated sensor powered up (fault injector callback).

        The join is queued, not applied: admission into routing happens only
        at a duty-cycle boundary when a re-form fires, so mid-cycle state
        (slot schedules, in-flight frames) never sees membership change.
        Under ``recluster='off'`` the joiner stays absent forever — the
        degradation the churn ablation measures.
        """
        if node in self.departed or node in self.blacklisted:
            return
        self.pending_joins.add(node)
        if self._staleness is not None:
            self._staleness.note_join(node)
        if self._tel_enabled:
            self._tel.metrics.counter("mac.joins_seen").inc()

    def notify_leave(self, node: int) -> None:
        """A sensor departed, announced (fault injector callback).

        Unlike an inferred crash the head learns this instantly: the node is
        excluded from planning at the next boundary without burning
        ``dead_after_misses`` detection cycles on it.
        """
        self.pending_joins.discard(node)
        if node in self.departed:
            return
        self.departed.add(node)
        self._new_departures.add(node)
        self._suspect_misses.pop(node, None)
        if self._staleness is not None:
            self._staleness.note_leave(node)
        if self._tel_enabled:
            self._tel.metrics.counter("mac.leaves_seen").inc()

    # -- head frame reception ----------------------------------------------------------

    def _head_on_frame(self, frame: Frame, rx_power: float) -> None:
        self._head_receive(frame, self.sim.now)

    def _head_receive(self, frame: Frame, now: float) -> None:
        """Head-side frame effects at reception time *now*.

        The vector slot engine calls this with the decode instant it
        computed in closed form (the kernel clock still sits at slot start),
        so delivery timestamps match the scalar path exactly.
        """
        payload = frame.payload
        if isinstance(payload, dict) and payload.get("cluster", self.cluster_id) != self.cluster_id:
            return
        if frame.ftype is FrameType.DATA:
            ins: PollInstruction = frame.payload["instruction"]
            if ins.receiver == HEAD:
                self._arrived_requests.add(ins.request_id)
                self.deliveries.append((now, frame.payload["packet"]))
        elif frame.ftype is FrameType.ACK_REPORT:
            ins = frame.payload["instruction"]
            if ins.receiver == HEAD:
                self._arrived_requests.add(ins.request_id)
                self._ack_counts.update(frame.payload["counts"])

    # -- the duty-cycle engine -----------------------------------------------------------

    def _broadcast(self, ftype: FrameType, size: int, payload) -> float:
        if isinstance(payload, dict):
            payload = {**payload, "cluster": self.cluster_id}
        frame = Frame(
            ftype=ftype,
            src=self.phy.phy_index(HEAD),
            dst=BROADCAST_ADDR,
            size_bytes=size,
            payload=payload,
        )
        return self.head_trx.transmit(frame)

    def _slot_time(self, payload_bytes: int) -> float:
        return self.timings.poll_slot_time(
            self.phy.medium.bitrate, self.sizes, payload_bytes
        )

    def _energy_snapshot(self) -> list[float]:
        """Exact per-radio consumed joules at ``sim.now`` without finalizing.

        Meters integrate lazily on state changes; the tail since the last
        change is added here read-only, so mid-run snapshots reconcile with
        the post-``finalize()`` figures of :mod:`repro.metrics.energy`.
        """
        now = self.sim.now
        out: list[float] = []
        for trx in self.phy.transceivers:
            meter = trx.meter
            out.append(
                meter.consumed_j
                + meter.params.power(meter.state)
                * max(0.0, now - meter.last_change)
            )
        return out

    def _run_phase(self, phase: str, plan: RoutingPlan, payload_bytes: int):
        """Generator: drive one polling phase slot by slot over the radio.

        Returns ``(slots_used, retransmissions, scheduler)`` — the finished
        scheduler carries the failed-request ids and per-phase blacklist the
        recovery layer mines for evidence.
        """
        tel_enabled = self._tel_enabled
        phase_span = None
        if tel_enabled:
            phase_span = self._tel.begin(
                "phase",
                phase,
                self.sim.now,
                parent=self._cycle_span,
                cluster=self.cluster_id,
                requests=sum(
                    int(plan.cluster.packets[s]) for s in plan.paths
                ),
            )
        scheduler = OnlinePollingScheduler(
            plan,
            self.oracle,
            retry_limit=self.retry_limit,
            dead_after_misses=self.dead_after_misses if self.failure_detection else None,
            # Both phases fail over: a relay that dies outside the data
            # phase kills next cycle's *ack* collection first, and without
            # an ack count the head never activates the data requests it
            # would need to fail over.  Evidence mining still sees the
            # death — every failover event's abandoned path is implicated.
            backups=self.backups,
            telemetry_parent=phase_span,
            telemetry_clock=("sim", lambda: self.sim.now),
        )
        slot_time = self._slot_time(payload_bytes)
        # Batch engine (DESIGN.md §12): clean slots replay as closed-form
        # array ops; dirty slots (pending fault/wake events, live carriers,
        # shared media, tracer subscribers) fall through to the event path.
        vector = maybe_vector_engine(self, payload_bytes)
        batch_total = 0
        batch_max = 0
        wall_start = perf_counter() if tel_enabled else 0.0
        self._arrived_requests = set()
        t = 0
        while not scheduler.all_done:
            if t >= self.max_slots_per_phase:
                raise RuntimeError(f"{phase} phase exceeded {self.max_slots_per_phase} slots")
            arrived, self._arrived_requests = self._arrived_requests, set()
            group = scheduler.external_step(t, arrived)
            if not group and scheduler.all_done:
                break  # last arrivals just resolved; no slot needed
            if tel_enabled:
                self._tel.add_event(
                    phase_span, self.sim.now, "slot", slot=t, group=len(group)
                )
                self._tel.metrics.histogram("mac.group_size").observe(
                    float(len(group))
                )
                batch_total += len(group)
                if len(group) > batch_max:
                    batch_max = len(group)
            instructions = [
                PollInstruction(
                    sender=tx.sender,
                    receiver=tx.receiver,
                    request_id=tx.request_id,
                    hop_index=tx.hop_index,
                )
                for tx in group
            ]
            payload = {"phase": phase, "slot": t, "instructions": instructions}
            if vector is None or not vector.try_slot(
                {**payload, "cluster": self.cluster_id}, group
            ):
                self._broadcast(FrameType.POLL, self.sizes.poll, payload)
            yield Timeout(slot_time)
            t += 1
        if vector is not None:
            vector.flush()
            self.vector_slots += vector.vector_slots
            self.scalar_slots += t - vector.vector_slots
        else:
            self.scalar_slots += t
        # Per-request, not pool-total: a request abandoned under faults with
        # zero attempts would otherwise push the count negative.
        retx = sum(max(0, r.attempts - 1) for r in scheduler.pool.requests)
        self.failovers.extend(scheduler.failover_events)
        # Phase invariants on the schedule the radio actually executed:
        # conservation of requests and the per-slot ≤M/compatibility rules.
        scheduler.validate_invariants(
            sim_time=self.sim.now,
            hint=f"cluster {self.cluster_id} {phase} phase, "
            f"{len(scheduler.pool.requests)} requests",
        )
        if tel_enabled:
            # Batched-path attribution: with the vector engine most slots
            # never hit the kernel, so wall profiling must come from the
            # phase loop itself — report engine mix, batch sizes, and the
            # per-slot amortized wall cost so obs/profile hot-path reports
            # stay meaningful (DESIGN.md §12).
            wall_s = perf_counter() - wall_start
            vector_slots = vector.vector_slots if vector is not None else 0
            self._tel.finish(
                phase_span,
                self.sim.now,
                slots=t,
                retransmissions=retx,
                failed=len(scheduler.failed),
                engine="vector" if vector is not None else "scalar",
                vector_slots=vector_slots,
                scalar_slots=t - vector_slots,
                batch_max=batch_max,
                batch_mean=(batch_total / t) if t else 0.0,
                wall_s=wall_s,
                slot_wall_us=(wall_s / t * 1e6) if t else 0.0,
            )
            self._tel.metrics.counter("mac.vector_slots").inc(vector_slots)
            self._tel.metrics.counter("mac.scalar_slots").inc(t - vector_slots)
        return t, retx, scheduler

    def _run_sectored(self, counts, cycle_start: float):
        """The Sec. IV data phase: sectors polled in turn, others asleep.

        The head knows each sector's nominal polling length (it can compute
        the loss-free schedule), pads it with slack for re-polls, announces
        every sensor's personal wake time in one broadcast, and then serves
        the sectors in their windows — putting each to bed the moment its
        packets are in.
        """
        sim = self.sim
        cluster = self.phy.cluster.with_packets(counts)
        data_slot = self._slot_time(self.sizes.data)
        next_wake_est = cycle_start + self.cycle_length
        # Per-sector plans and window budgets.
        jobs: list[tuple[object, RoutingPlan | None, int]] = []
        for sec in self.partition.sectors:
            plan = sec.routing_plan(cluster)
            if not plan.paths:
                jobs.append((sec, None, 0))
                continue
            # Planning-only run: NULL_TELEMETRY keeps the estimate's phantom
            # requests out of the live trace.
            nominal = OnlinePollingScheduler(
                plan, self.oracle, telemetry=_obs.NULL_TELEMETRY
            ).run().slots_elapsed
            budget = int(np.ceil(nominal * self.slack_factor)) + 4
            jobs.append((sec, plan, budget))
        # Announce personal wake times (sector 0 starts right away).
        dur = transmission_time(self.sizes.sleep, self.phy.medium.bitrate)
        base = sim.now + dur + self.timings.turnaround
        wake_map: dict[int, float] = {}
        offset = 0.0
        window_starts: list[float] = []
        for k, (sec, plan, budget) in enumerate(jobs):
            window_starts.append(base + offset)
            if k > 0:
                for s in sec.sensors:
                    wake_map[s] = base + offset
            offset += budget * data_slot
        self._broadcast(FrameType.SLEEP, self.sizes.sleep, {"wake_map": wake_map})
        yield Timeout(dur + self.timings.turnaround)
        # Serve each sector in its window.
        total_slots = 0
        total_retx = 0
        for k, (sec, plan, budget) in enumerate(jobs):
            if plan is None:
                continue
            if sim.now < window_starts[k]:
                yield Timeout(window_starts[k] - sim.now)
            slots, retx, sched = yield from self._run_phase(
                "data", plan, self.sizes.data
            )
            total_slots += slots
            total_retx += retx
            self.packets_failed += len(sched.failed)
            self._phase_schedulers.append(("data", sched))
            # This sector is done: straight to sleep until the next cycle.
            self._broadcast(
                FrameType.SLEEP,
                self.sizes.sleep,
                {"wake_at": next_wake_est, "members": list(sec.sensors)},
            )
            yield Timeout(
                transmission_time(self.sizes.sleep, self.phy.medium.bitrate)
                + self.timings.turnaround
            )
        return total_slots, total_retx

    # -- failure detection & route repair -------------------------------------------
    #
    # The head never observes a death directly — it only sees polls going
    # unanswered.  Localization works from per-cycle evidence:
    #
    # * proof of life: every sensor whose ack count reached the head this
    #   cycle, and every node on a *data* path that delivered (each hop
    #   demonstrably forwarded the actual packet).  A delivered ack proves
    #   nothing about its upstream hops — relays merge their own count and
    #   forward even when everything upstream stayed silent;
    # * implication: every node on a retry-exhausted path, plus every
    #   sensor the ack cover polled whose count never arrived (dead, or
    #   silently starved behind a dead relay).
    #
    # A node implicated without proof of life is a *suspect*; suspicion must
    # persist ``dead_after_misses`` consecutive cycles before the head
    # declares the death (one bad cycle of collisions must not kill a node).
    # Among ripe candidates the head declares only the minimal explanation:
    # a candidate upstream of another candidate on a polled path is spared —
    # the downstream death explains its silence — and gets a fresh route
    # from the repair; its own evidence convicts or exonerates it next cycle.

    def _update_failure_suspects(self) -> None:
        alive: set[int] = set(self._ack_counts)
        implicated: set[int] = set()
        paths: list[tuple[int, ...]] = []
        for phase, sched in self._phase_schedulers:
            for req in sched.pool.requests:
                nodes = tuple(n for n in req.path if n != HEAD)
                paths.append(nodes)
                if req.request_id in sched.failed:
                    implicated.update(nodes)
                elif phase == "data" and req.state is RequestState.DELETED:
                    alive.update(nodes)
            # An in-cycle failover is implication evidence too: the head
            # abandoned the old path because its relays swallowed packets.
            # Without this, a successful failover (packets delivered, nothing
            # in ``failed``) would leave the dead relay unsuspected and the
            # boundary repair would never route around it.
            for ev in sched.failover_events:
                paths.append(tuple(n for n in ev.old_path if n != HEAD))
                implicated.update(n for n in ev.old_path[1:-1])
        covered = {n for p in self.ack_plan.paths for n in p if n != HEAD}
        implicated |= covered - alive
        # Departed/absent nodes are *known* gone — suspicion is for deaths
        # the head must infer, and wasting blacklist entries on announced
        # departures would double-count them in degradation metrics.
        suspects = implicated - alive - self.blacklisted - self.departed - self.absent
        self._suspect_misses = {
            s: self._suspect_misses.get(s, 0) + 1 for s in suspects
        }
        candidates = {
            s for s, c in self._suspect_misses.items() if c >= self.dead_after_misses
        }
        if not candidates:
            return
        explained = {
            node
            for path in paths
            for i, node in enumerate(path)
            if node in candidates and any(d in candidates for d in path[i + 1 :])
        }
        newly_dead = candidates - explained
        if newly_dead:
            self.blacklisted |= newly_dead
            for s in newly_dead:
                self._suspect_misses.pop(s, None)
            self._repair_routing()

    def _repair_routing(self) -> None:
        """Re-plan around newly declared deaths or announced departures.

        Runs at the duty-cycle boundary on the PHY's current topology; the
        pruning, partial-coverage fallback and re-plan record are
        :meth:`_replan`'s.
        """
        repair_span = None
        if self._tel_enabled:
            repair_span = self._tel.begin(
                "repair",
                "route-repair",
                self.sim.now,
                parent=self._cycle_span,
                cluster=self.cluster_id,
                blacklisted=sorted(self.blacklisted),
            )
        record = self._replan(self.phy.cluster, "repair")
        if self._staleness is not None:
            self._staleness.note_repair()
        if repair_span is not None:
            self._tel.finish(
                repair_span,
                self.sim.now,
                unreachable=sorted(self.unreachable),
                newly_unreachable=list(record.newly_unreachable),
            )
            self._tel.metrics.counter("mac.route_repairs").inc()
            self._tel.metrics.histogram("mac.repair_unreachable").observe(
                float(len(self.unreachable))
            )

    def _recluster(self, reason: str) -> None:
        """Online re-form at a duty-cycle boundary (DESIGN.md §11).

        Re-discovers connectivity from the live medium (so moved nodes bring
        their moved links), admits pending joiners, and re-plans through
        :meth:`_replan` — blacklist, announced departures and still-absent
        sensors all stay excluded, and failover state is rebuilt on the new
        plan.  Queued application packets are untouched: a re-form reshapes
        routing state only, and the conservation check below enforces
        exactly that.
        """
        span = None
        if self._tel_enabled:
            span = self._tel.begin(
                "recluster",
                f"recluster:{reason}",
                self.sim.now,
                parent=self._cycle_span,
                cluster=self.cluster_id,
                reason=reason,
                pending_joins=sorted(self.pending_joins),
                departed=sorted(self.departed),
            )
        admitted = set(self.pending_joins)
        self.absent -= admitted
        self.pending_joins.clear()
        excluded = self._excluded()
        present = [i for i in range(self.phy.n_sensors) if i not in excluded]
        pending_before = sum(self.sensors[i].pending_count for i in present)
        # The re-discovered cluster becomes the PHY's ground-truth topology,
        # and the planning oracle re-captures the medium's *current* receive
        # powers — this is the one place mobility staleness is repaid.
        self.phy.cluster = discovered_cluster(self.phy)
        self.oracle = phy_truth_oracle(self.phy, self.oracle.max_group_size)
        self._adopt_oracle()
        # Suspicion counters were evidence against the *old* topology.
        self._suspect_misses = {}
        # The record charges the new roster + schedule to the next wakeup:
        # 2 bytes per present sensor (id + slot assignment).
        record = self._replan(self.phy.cluster, "recluster", reason, tuple(sorted(admitted)))
        pending_after = sum(self.sensors[i].pending_count for i in present)
        hint = f"cluster {self.cluster_id} recluster ({reason})"
        _validate.check_reform_conservation(
            pending_before, pending_after, sim_time=self.sim.now, hint=hint
        )
        if self._staleness is not None:
            self._staleness.reset()
        if span is not None:
            self._tel.finish(
                span,
                self.sim.now,
                admitted=sorted(admitted),
                unreachable=sorted(self.unreachable),
                roster_bytes=record.roster_bytes,
            )
            self._tel.metrics.counter("mac.reclusters").inc()

    def _backup_ack_sweep(self, covered: set[int]):
        """Generator: one extra ack round over backup paths.

        *covered* is everyone the ack cover should have reported; whoever
        is absent from ``_ack_counts`` is polled again along its first
        backup path that avoids the other missing nodes (a backup relayed
        by another silent node is presumed equally dead) and the blacklist.
        Reports merged on the way pick up interior counts too.  Returns the
        slots used; zero when nothing is missing — a healthy cycle pays no
        overhead for being prepared.
        """
        missing = sorted(covered - set(self._ack_counts) - self.blacklisted)
        sweep_paths: dict[int, tuple[int, ...]] = {}
        for sensor in missing:
            for path in self.backups.paths_for(sensor):
                interior = set(path[1:-1])
                if interior & (set(missing) | self.blacklisted):
                    continue
                sweep_paths[sensor] = path
                break
        if not sweep_paths:
            return 0
        packets = np.zeros(self.phy.n_sensors, dtype=np.int64)
        for sensor in sweep_paths:
            packets[sensor] = 1
        plan = RoutingPlan(
            cluster=self.active_cluster.with_packets(packets), paths=sweep_paths
        )
        slots, _, sched = yield from self._run_phase("ack", plan, self.sizes.ack_report)
        self._phase_schedulers.append(("ack", sched))
        return slots

    def _run(self, n_cycles: int):
        sim = self.sim
        for cycle in range(n_cycles):
            cycle_start = sim.now
            self.mid_cycle = True
            offered = sum(s.pending_count for s in self.sensors)
            delivered_before = self.packets_delivered
            self._phase_schedulers = []
            cycle_span = None
            energy_before: list[float] = []
            if self._tel_enabled:
                energy_before = self._energy_snapshot()
                cycle_span = self._tel.begin(
                    "cycle",
                    f"cycle:{cycle}",
                    cycle_start,
                    parent=self._tel.root,
                    cluster=self.cluster_id,
                    cycle=cycle,
                )
                self._cycle_span = cycle_span
            # 1. wakeup broadcast (sensors are awake: they woke on schedule).
            wakeup_payload: dict = {"cycle": cycle}
            gone = self.blacklisted | self.departed
            if gone:
                # Blacklist propagation: relays drop dead origins' packets
                # (announced departures purge exactly like inferred deaths).
                wakeup_payload["blacklist"] = sorted(gone)
            # A re-form last boundary means this wakeup re-announces the
            # roster/schedule; zero extra bytes otherwise.
            dur = self._broadcast(
                FrameType.WAKEUP,
                self.sizes.wakeup + self._reform_roster_bytes,
                wakeup_payload,
            )
            self._reform_roster_bytes = 0
            yield Timeout(dur + self.timings.turnaround)
            # 2. ack collection along covering paths.
            self._ack_counts = {}
            ack_paths = {p[0]: p for p in self.ack_plan.paths}
            ack_packets = np.zeros(self.phy.n_sensors, dtype=np.int64)
            for start in ack_paths:
                ack_packets[start] = 1
            ack_plan = RoutingPlan(
                cluster=self.active_cluster.with_packets(ack_packets), paths=ack_paths
            )
            ack_slots, _, ack_sched = yield from self._run_phase(
                "ack", ack_plan, self.sizes.ack_report
            )
            self._phase_schedulers.append(("ack", ack_sched))
            # 2b. backup ack sweep (proactive survivability, k >= 1 only).
            # A dead *middle* relay does not fail its ack request — the
            # downstream relay re-originates the report with its own count
            # — so the only symptom is counts that never arrived.  Without
            # them the head cannot even issue the data requests it would
            # fail over, so re-collect exactly the missing counts along
            # the sensors' disjoint backup paths before polling data.
            if self.backups is not None:
                ack_slots += yield from self._backup_ack_sweep(
                    {n for p in self.ack_plan.paths for n in p if n != HEAD}
                )
            # 3. data polling from the reported counts.
            counts = np.zeros(self.phy.n_sensors, dtype=np.int64)
            for sensor, cnt in self._ack_counts.items():
                counts[sensor] = cnt
            excluded_now = self._excluded()
            if excluded_now:
                counts[sorted(excluded_now)] = 0
            data_slots = 0
            retransmissions = 0
            if self.partition is not None:
                data_slots, retransmissions = yield from self._run_sectored(
                    counts, cycle_start
                )
            else:
                base_plan = self.rotator.next_cycle()
                data_paths = {
                    s: base_plan.paths[s]
                    for s in range(self.phy.n_sensors)
                    if counts[s] > 0 and s in base_plan.paths
                }
                if data_paths:
                    data_plan = RoutingPlan(
                        cluster=self.active_cluster.with_packets(counts), paths=data_paths
                    )
                    data_slots, retransmissions, data_sched = yield from self._run_phase(
                        "data", data_plan, self.sizes.data
                    )
                    self.packets_failed += len(data_sched.failed)
                    self._phase_schedulers.append(("data", data_sched))
            # 3b. recovery: cross-examine the cycle's evidence and repair
            # routing around newly declared deaths at this cycle boundary.
            if self.failure_detection:
                self._update_failure_suspects()
            # 3c. dynamic membership: re-form when the plan is stale, else
            # at minimum repair around announced departures.  Both run at
            # the boundary only — mid-cycle state never sees them.
            reform_reason = None
            if self._staleness is not None:
                self._staleness.note_cycle()
                reform_reason = self._staleness.due(self.routing.loads)
            if reform_reason is not None:
                self._recluster(reform_reason)
            elif self._new_departures and self.replans[-1].time != sim.now:
                # (A re-plan at this same boundary already pruned the
                # departures: it excludes self._excluded() wholesale.)
                self._repair_routing()
            self._new_departures.clear()
            # 4. sleep broadcast.
            next_wake = max(cycle_start + self.cycle_length, sim.now + 2 * self.timings.guard)
            dur = self._broadcast(FrameType.SLEEP, self.sizes.sleep, {"wake_at": next_wake})
            yield Timeout(dur)
            self.cycle_stats.append(
                CycleStats(
                    cycle_index=cycle,
                    started_at=cycle_start,
                    duty_time=sim.now - cycle_start,
                    ack_slots=ack_slots,
                    data_slots=data_slots,
                    packets_delivered=self.packets_delivered - delivered_before,
                    packets_offered=offered,
                    retransmissions=retransmissions,
                )
            )
            if cycle_span is not None:
                stats = self.cycle_stats[-1]
                energy_delta = [
                    after - before
                    for before, after in zip(
                        energy_before, self._energy_snapshot()
                    )
                ]
                metrics = self._tel.metrics
                metrics.counter("mac.cycles").inc()
                metrics.counter("mac.ack_slots").inc(ack_slots)
                metrics.counter("mac.data_slots").inc(data_slots)
                metrics.counter("mac.packets_delivered").inc(
                    stats.packets_delivered
                )
                metrics.counter("mac.retransmissions").inc(retransmissions)
                self._tel.finish(
                    cycle_span,
                    sim.now,
                    delivered=stats.packets_delivered,
                    offered=offered,
                    ack_slots=ack_slots,
                    data_slots=data_slots,
                    retransmissions=retransmissions,
                )
                self._tel.snapshot_cycle(
                    cluster=self.cluster_id,
                    cycle=cycle,
                    t=sim.now,
                    duty_time=stats.duty_time,
                    energy_delta_j=energy_delta,
                )
                self._cycle_span = None
            # Wait out the rest of the cycle (the head may idle or serve the
            # second-layer network; sensors are asleep).
            self.mid_cycle = False
            if next_wake > sim.now:
                yield Timeout(next_wake - sim.now)
        return len(self.cycle_stats)

"""Multi-cluster polling on one shared medium (Sec. V-G, executed).

Several cluster heads and their Voronoi-formed clusters share one physical
radio space.  Without coordination, boundary sensors of adjacent clusters
collide whenever their heads poll simultaneously — and the heads' own
high-power poll broadcasts jam each other across cluster borders.  The
paper offers two remedies, both runnable here:

* ``mode="uncoordinated"`` — everyone on one channel, cycles aligned: the
  failure case (inter-cluster collisions eat packets);
* ``mode="token"`` — one channel, but duty cycles staggered into windows
  (the head-to-head token of Sec. V-G; the second-layer token passing
  itself is out of band);
* ``mode="channels"`` — clusters whose radios hear each other on different
  radio channels, colored once at build from the shared medium's receive
  powers; everyone polls concurrently.

All three run the full per-cluster polling MAC; the shared
:class:`~repro.radio.channel.RadioMedium` decides what actually decodes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

import numpy as np

from .. import obs as _obs
from .. import validate as _validate
from ..core.online import OnlinePollingScheduler
from ..mac.base import (
    GROUND_SENSOR_PROPAGATION,
    SENSOR_RANGE_M,
    ClusterPhy,
    MacTimings,
    _tx_power,
    sensor_power_for_range,
)
from ..mac.pollmac import PollingClusterMac, PollingSensorAgent
from ..radio.channel import RadioMedium
from ..radio.packet import DEFAULT_SIZES
from ..radio.transceiver import Transceiver
from ..routing.repair import prune_dead_nodes
from ..faults.injector import drift_step
from ..sim.kernel import Simulator
from ..sim.rng import RngStreams, mobility_rng
from ..topology.cluster import HEAD, Cluster
from ..topology.forming import FormedNetwork, form_clusters
from ..topology.handoff import (
    FieldReformPlan,
    HandoffMove,
    plan_field_reform,
    serving_staleness,
)
from ..topology.recluster import StalenessTracker, StalenessTrigger, discovered_cluster
from .multicluster import TokenSchedule, assign_channels
from ..traffic.cbr import CbrSource, attach_cbr_sources

__all__ = [
    "MultiClusterConfig",
    "MultiClusterResult",
    "AdoptionEvent",
    "FieldHandoffEvent",
    "FieldReformEvent",
    "FieldCoordinator",
    "run_multicluster_simulation",
]

BEACON_INTERVAL_S = 1.0
"""Seconds between rounds of the heads' inter-cluster beacons."""

BEACON_MISS_LIMIT = 3
"""Consecutive missed inter-cluster beacons that declare a head dead."""

COMMIT_LEAD_S = 0.25
"""How long before each duty-cycle boundary a field re-form prepares its
moves (clamped to half a cycle); the commit lands on the boundary."""

HANDOFF_TRIGGERS = {
    "staleness": StalenessTrigger(membership_delta=3, repair_fallbacks=0),
    "periodic": StalenessTrigger(
        membership_delta=0, repair_fallbacks=0, period_cycles=1
    ),
}
"""The field-scope trigger behind each ``handoff`` policy ("off" arms none)."""


@dataclass(frozen=True)
class MultiClusterConfig:
    n_sensors: int = 60
    n_heads: int = 3
    field_m: float = 360.0
    rate_bps: float = 20.0
    cycle_length: float = 6.0
    n_cycles: int = 5
    seed: int = 0
    mode: str = "channels"  # "channels" | "token" | "uncoordinated"
    # Head survivability.  All defaults off = the exact pre-failover code
    # path, bit for bit: no coordinator object, no scheduled events, no RNG
    # draws.  ``head_crashes`` injects fail-stop head crashes as (head,
    # time) pairs; ``head_failover`` arms the inter-cluster beacon watchdog
    # (a round every ``BEACON_INTERVAL_S``) that detects them and hands the
    # orphaned sensors to the nearest surviving head (crashes without
    # failover = the baseline where the whole cluster simply goes dark).
    head_failover: bool = False
    head_crashes: tuple[tuple[int, float], ...] = ()
    # Field-level mobility (DESIGN.md §11): every sensor drifts a bounded
    # random step at each duty-cycle boundary (speed * cycle_length max,
    # reflected into the field).  0 (the default) schedules nothing and
    # draws no RNG — the exact static code path, bit for bit.  The Voronoi
    # forming is *not* recomputed mid-run; ``final_assignment_staleness``
    # on the result quantifies how far the deploy-time forming drifted.
    mobility_speed_mps: float = 0.0
    # Slot engine (DESIGN.md §12): "vector" (the default) replays each slot
    # that nothing outside its cluster's channel can observe in closed
    # form, bit for bit; "scalar" runs every slot through the event path.
    engine: str = "vector"
    # Field-level re-forming (DESIGN.md §13).  "off" (the default) arms
    # nothing: no coordinator, no scheduled events, no extra computation —
    # the exact pre-handoff code path, bit for bit, per-radio energy floats
    # included.  "staleness" re-runs the Voronoi forming over *live*
    # positions whenever the field-scope staleness trigger fires and hands
    # a bounded batch of sensors to their nearest live head; "periodic"
    # re-forms on a fixed cycle cadence regardless of drift.  Each policy's
    # trigger is its ``HANDOFF_TRIGGERS`` entry.  Moves are
    # planned and radios retuned ``COMMIT_LEAD_S`` before the boundary
    # (inside the field-wide sleep tail), then committed exactly at the
    # boundary.  That window is the protocol's crash-safety surface — a
    # head dying inside it aborts its moves.
    handoff: str = "off"  # "off" | "staleness" | "periodic"
    handoff_head_step_m: float = 0.0  # quantization placement step budget
    # Per-cluster MAC passthroughs (all defaults = the exact current MAC
    # arguments, bit for bit): failure detection (a threshold of silent
    # cycles; None is off) and backup paths, so handoff runs can exercise
    # blacklist carryover and backup-bundle rebuilds end to end.
    dead_after_misses: int | None = None
    backup_k: int = 0


@dataclass(frozen=True)
class AdoptionEvent:
    """One head takeover: who died, who adopted, and which sensors moved."""

    time: float  # when the watchdog declared the head dead (detection time)
    dead_head: int
    adopter: int
    sensors: tuple[int, ...]  # global sensor ids that changed cluster


@dataclass(frozen=True)
class FieldHandoffEvent:
    """One cross-cluster sensor handoff attempt and how it ended.

    ``state`` is the protocol outcome: ``"committed"`` (the sensor now
    belongs to ``dst``), ``"aborted-src-dead"`` / ``"aborted-dst-dead"``
    (a head died inside the prepare->commit window; the radio was retuned
    back and, for a dead source, the sensor left to the failover adoption
    path), ``"deferred-busy"`` (an endpoint head was mid-cycle at prepare
    time — token-mode overrun — so the move waits for a later boundary),
    ``"deferred-src-empty"`` (the move would have emptied its source
    cluster's roster), ``"deferred-unreachable"`` (the sensor still has
    service at its source but no radio link into the destination roster)
    or ``"deferred-bridge"`` (the sensor is a cut vertex of its source
    cluster's hearing graph — removing it would strand covered members).
    """

    time: float
    sensor: int  # global sensor id
    src: int
    dst: int
    state: str


@dataclass(frozen=True)
class FieldReformEvent:
    """One field re-form that reached commit; each of its moves is a
    :class:`FieldHandoffEvent`."""

    time: float
    reason: str  # why the field-scope trigger fired
    staleness: float  # serving staleness at plan time
    committed: int  # sensors handed off
    aborted: int  # staged moves undone at commit (dead or busy endpoint)
    deferred: int  # misassignments left beyond the move budget


@dataclass
class MultiClusterResult:
    config: MultiClusterConfig
    net: FormedNetwork
    macs: list[PollingClusterMac]
    channels: np.ndarray
    elapsed: float
    packets_generated: int
    collisions: int
    coordinator: "FieldCoordinator | None" = None
    """Present when crashes, failover or re-forming are armed; carries the
    crash/detection/adoption and re-form/handoff timelines and the live
    serving map."""
    mobility_epochs: int = 0
    """Cycle-boundary drift steps executed (0 for static runs)."""
    final_assignment_staleness: float = 0.0
    """Fraction of sensors whose nearest head at the end of the run differs
    from the assignment in force — the deploy-time Voronoi forming, or the
    handoff coordinator's live serving map when field re-forming is armed
    (0.0 for static runs)."""
    telemetry: "_obs.Telemetry | None" = None
    """The collector the run was traced into (activated around the call
    with ``obs.use(...)``); ``None`` for untraced runs."""
    staleness_trajectory: tuple[float, ...] = ()
    """Assignment staleness sampled at every mobility epoch (duty-cycle
    boundary), not just at sim end — empty for static runs."""
    field_coverage: float = 1.0
    """Ground-truth fraction of sensors a live head can actually still
    reach at sim end (in-roster hearing with a finite hop path, exclusions
    removed) — the quantity handoff exists to defend under mobility."""

    @property
    def packets_delivered(self) -> int:
        return sum(mac.packets_delivered for mac in self.macs)

    @property
    def packets_failed(self) -> int:
        return sum(mac.packets_failed for mac in self.macs)

    @property
    def delivery_ratio(self) -> float:
        eligible = self.packets_delivered + self.packets_failed
        if eligible == 0:
            return 1.0
        return self.packets_delivered / eligible

    def per_cluster_delivery(self) -> list[tuple[int, int]]:
        return [(mac.cluster_id, mac.packets_delivered) for mac in self.macs]

    @property
    def handoff_events(self) -> list["FieldHandoffEvent"]:
        if self.coordinator is None:
            return []
        return list(self.coordinator.events)

    @property
    def field_reforms(self) -> int:
        if self.coordinator is None:
            return 0
        return len(self.coordinator.reform_events)

    @property
    def field_handoffs(self) -> int:
        """Committed cross-cluster sensor moves over the whole run."""
        return sum(ev.state == "committed" for ev in self.handoff_events)


def _head_layout(k: int, field: float, rng) -> np.ndarray:
    """Spread heads over the field deterministically (jittered grid)."""
    cols = int(np.ceil(np.sqrt(k)))
    rows = int(np.ceil(k / cols))
    xs = (np.arange(cols) + 0.5) * field / cols
    ys = (np.arange(rows) + 0.5) * field / rows
    pts = [(x, y) for y in ys for x in xs][:k]
    jitter = rng.uniform(-0.05 * field, 0.05 * field, size=(k, 2))
    return np.asarray(pts) + jitter


class _FieldMobility:
    """Bounded drift of every sensor over the shared field (DESIGN.md §11).

    The multi-cluster analogue of the per-cluster mobility fault: one step
    per sensor per duty-cycle boundary, each node on its own substream of
    the dedicated mobility RNG stream, positions reflected into the field.
    Epochs are scheduled at construction — before any MAC exists — so the
    kernel's FIFO tie-break runs them ahead of the heads' wakeups at the
    same timestamp and every cycle sees one consistent geometry.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: RadioMedium,
        n_sensors: int,
        speed_mps: float,
        cycle_length: float,
        n_cycles: int,
        field_m: float,
        base_seed: int,
    ):
        self.sim = sim
        self.medium = medium
        self.n_sensors = n_sensors
        self.step_max = speed_mps * cycle_length
        self.bounds = (0.0, field_m, 0.0, field_m)
        self._rngs = [mobility_rng(base_seed, i) for i in range(n_sensors)]
        self.epochs = 0
        # Per-duty-cycle assignment staleness (satellite of DESIGN.md §13):
        # the probe is pure computation over the fresh positions — no RNG,
        # no events — so sampling it every epoch leaves mobility-only runs
        # bit-for-bit unchanged.  ``_run_multicluster`` wires it, before the
        # run, to either the deploy-time assignment or the handoff
        # coordinator's live serving map, and reads it once more at the end.
        self.staleness_probe: Callable[[], float] | None = None
        self.staleness_trajectory: list[float] = []
        for k in range(1, int(n_cycles)):
            sim.at(k * cycle_length, self._epoch)

    def _epoch(self) -> None:
        positions = self.medium.positions.copy()
        drift_step(
            positions, range(self.n_sensors), self._rngs, self.step_max, self.bounds
        )
        self.medium.update_positions(positions)
        self.epochs += 1
        value = float(self.staleness_probe())
        self.staleness_trajectory.append(value)
        tel = _obs.current()
        if tel.enabled:
            tel.metrics.gauge("field.assignment_staleness").set(value)
            tel.metrics.histogram("field.assignment_staleness.trajectory").observe(value)


class FieldCoordinator:
    """The field's live membership and the two protocols that change it.

    One object owns who serves whom on the shared field: the serving map
    (global sensor id -> head), the head positions, the live-head list and
    the one hand-over (:meth:`_hand_over`) that both protocols run to
    change a roster.

    **Head takeover** (DESIGN.md §9).  Cluster heads exchange an
    inter-cluster beacon every ``BEACON_INTERVAL_S`` (modeled out of band,
    like the Sec. V-G token passing itself — heads are wired/high-power
    nodes whose coordination traffic does not contend with the sensor
    channel).  A head that misses ``BEACON_MISS_LIMIT`` consecutive beacons
    is declared dead by its peers; its orphaned sensors are then
    **adopted** by the nearest surviving head: their radios move to the
    adopter's channel, fresh sensor agents re-bind the existing
    transceivers into the adopter's cluster, queued application packets
    carry over, and the adopter merges the new demand into its routing via
    the standard boundary repair (blacklists preserved, out-of-reach
    orphans planned at zero — the partial-coverage contract).  Crashes
    themselves are injected via ``config.head_crashes`` whether or not
    failover is armed, so the no-failover baseline (cluster goes dark,
    data stops) and the takeover run are directly comparable.

    **Cross-cluster handoff** (DESIGN.md §13).  Under mobility, boundary
    sensors end up physically closer to (and often only reachable by) a
    *different* head than the one still polling them.  Re-forming closes
    the loop with a two-event protocol per duty-cycle boundary:

    *prepare* (``boundary - COMMIT_LEAD_S``, inside the field-wide sleep
    tail): feed the field-scope staleness tracker; when it fires, re-run
    the Voronoi forming over live positions (with one bounded quantization
    step of head re-placement folded in) and retune the planned movers'
    radios to their destination channels — sensors are asleep, so the
    retune is invisible to the MAC.

    *commit* (exactly at the boundary, scheduled at build time so the
    kernel's FIFO tie-break runs it after the mobility epoch but before
    any head's wakeup): re-check endpoint liveness — the prepare->commit
    window is the protocol's crash surface — then rebuild every affected
    cluster's PHY/agents with the new rosters.  Queued application packets
    ride along (re-stamped to new local ids), CBR sources re-target, and
    each affected head re-plans via the standard boundary repair (never a
    cold re-solve); blacklists, departed marks and suspect evidence follow
    the sensor across clusters.

    Crash safety: a source head dead at commit aborts its moves and leaves
    the orphans to the takeover (one mover per sensor — that is the
    ``dynamic.no-dual-membership`` invariant); a dead destination aborts
    and retunes the movers home.  Either way no queue is stranded: packets
    sit untouched in the old agents until a commit or an adoption
    transplants them, and the ``dynamic.queue-conservation`` invariant
    checks the field-wide pending count across every roster change.
    """

    def __init__(
        self,
        sim: Simulator,
        config: MultiClusterConfig,
        net: FormedNetwork,
        medium: RadioMedium,
        macs: list[PollingClusterMac],
        sensor_positions: np.ndarray,
        head_positions: np.ndarray,
        source_by_global: dict[int, CbrSource],
    ):
        self.sim = sim
        self.config = config
        self.medium = medium
        self.macs = macs
        self.serving = np.asarray(net.assignment, dtype=np.int64).copy()
        self.source_by_global = source_by_global
        # Head re-placement moves rows in place, so adoption groups orphans
        # around the heads' current positions.
        self.head_positions = head_positions
        # Deploy-time positions; see the known fault in _declare_dead.
        self.sensor_positions = sensor_positions
        # Head takeover.
        self.crashed: list[tuple[int, float]] = []  # ground truth (head, time)
        self.adoption_events: list[AdoptionEvent] = []
        self._missed_beacons = {h: 0 for h in range(config.n_heads)}
        self._declared: set[int] = set()  # heads the watchdog already handled
        # Cross-cluster handoff.
        self.tracker: StalenessTracker | None = None
        self.events: list[FieldHandoffEvent] = []
        self.reform_events: list[FieldReformEvent] = []
        self._pending: tuple[FieldReformPlan, list] | None = None
        for h, t in config.head_crashes:
            sim.at(float(t), self.crash_head, int(h))
        if config.head_failover:
            sim.schedule(BEACON_INTERVAL_S, self._beacon_tick)
        if config.handoff != "off":
            self.tracker = StalenessTracker(HANDOFF_TRIGGERS[config.handoff])
            lead = min(COMMIT_LEAD_S, 0.5 * config.cycle_length)
            for k in range(1, int(config.n_cycles)):
                t = k * config.cycle_length
                sim.at(t - lead, self._prepare)
                sim.at(t, self._commit)

    # -- membership --------------------------------------------------------------

    def _live(self) -> list[int]:
        return [h for h in range(self.config.n_heads) if not self.macs[h].halted]

    def current_staleness(self) -> float:
        """Serving staleness against live heads and the live serving map."""
        return serving_staleness(
            self.medium.positions[: self.config.n_sensors],
            self.head_positions,
            self.serving,
            self._live(),
        )

    # -- fault injection ---------------------------------------------------------

    def crash_head(self, h: int) -> None:
        """Fail-stop crash of head *h*: radio dark, duty cycle killed."""
        mac = self.macs[h]
        if mac.halted:
            return
        self.crashed.append((h, self.sim.now))
        mac.halt()
        _obs.current().timeline_event(self.sim.now, "head-crash", head=h)

    # -- head takeover -----------------------------------------------------------

    def _beacon_tick(self) -> None:
        """One beacon round: live heads beacon, peers count the silent ones."""
        for h, mac in enumerate(self.macs):
            if mac.halted:
                self._missed_beacons[h] += 1
            else:
                self._missed_beacons[h] = 0
        for h in range(self.config.n_heads):
            if h in self._declared:
                continue
            if self._missed_beacons[h] >= BEACON_MISS_LIMIT:
                self._declared.add(h)
                self._declare_dead(h)
        self.sim.schedule(BEACON_INTERVAL_S, self._beacon_tick)

    def _declare_dead(self, dead_head: int) -> None:
        dead_phy = self.macs[dead_head].phy
        assert dead_phy.index_map is not None
        orphans = [int(g) for g in dead_phy.index_map[:-1]]
        live = self._live()  # the dead head is already halted
        _obs.current().timeline_event(
            self.sim.now,
            "head-declared-dead",
            head=dead_head,
            orphans=len(orphans),
        )
        if not orphans or not live:
            return  # nothing to re-home / nobody left to take them
        groups: dict[int, list[int]] = {}
        for g in orphans:
            # Known fault (DESIGN.md §9): the heads' positions are live but
            # the orphans' are deploy-time, so under mobility an orphan can
            # go to a head other than the one nearest where it is now.
            deltas = self.head_positions[live] - self.sensor_positions[g]
            adopter = live[int(np.argmin((deltas**2).sum(axis=1)))]
            groups.setdefault(adopter, []).append(g)
        now = self.sim.now
        for adopter in sorted(groups):
            # The orphans keep the dead head's roster order, and its
            # blacklist and suspicion follow them to their adopter.
            adopted = groups[adopter]
            self._hand_over(
                [(g, dead_head, adopter) for g in adopted],
                "adoption",
                hint=f"head {adopter} adopts {len(adopted)} of head {dead_head}'s "
                f"orphans t={now:g}",
            )
            self.adoption_events.append(
                AdoptionEvent(now, dead_head, adopter, tuple(adopted))
            )
            _obs.current().timeline_event(
                now,
                "head-adoption",
                head=dead_head,
                adopter=adopter,
                sensors=list(adopted),
            )

    # -- the hand-over -----------------------------------------------------------

    def _hand_over(
        self, moves: list[tuple[int, int, int]], cause: str, hint: str
    ) -> None:
        """Move each ``(sensor, src, dst)`` of *moves* (global ids) to its
        destination head: every roster change of the field runs this.

        One global-id view over the heads named in *moves* is taken before
        any is rebuilt.  Each live one is rebuilt in head order: members
        that stay keep their old order (stable local ids in the common
        case), incoming sensors append in *moves* order with their radios
        retuned to its channel, and it takes the roster as a *cause*
        re-plan that admits them.  A halted source is not rebuilt.  Then
        the serving map is written and the field's queued packets, counted
        before the rebuild, must all survive (``dynamic.queue-conservation``)
        with no sensor on two live rosters (``dynamic.no-dual-membership``).
        """
        pending_before = _field_pending(self.macs)
        heads = sorted({h for _, src, dst in moves for h in (src, dst)})
        view = _roster_view(self.macs[h] for h in heads)
        moved_out = {g for g, _, _ in moves}
        for h in heads:
            mac = self.macs[h]
            if mac.halted:
                continue
            retained = [
                int(g) for g in mac.phy.index_map[:-1] if int(g) not in moved_out
            ]
            incoming = [g for g, _, dst in moves if dst == h]
            for g in incoming:
                self._retune(g, h)
            new_phy, agents, evidence = _rebuild_roster(
                mac, retained + incoming, set(incoming), view, self.source_by_global
            )
            admitted = tuple(range(len(retained), len(agents)))
            mac.take_roster(new_phy, agents, cause, admitted, **evidence)
        for g, _, dst in moves:
            self.serving[g] = dst
        now = self.sim.now
        _validate.check_queue_conservation(
            pending_before, _field_pending(self.macs), sim_time=now, hint=hint
        )
        live_rosters = {
            h: [int(g) for g in mac.phy.index_map[:-1]]
            for h, mac in enumerate(self.macs)
            if not mac.halted
        }
        _validate.check_single_membership(live_rosters, sim_time=now, hint=hint)

    # -- cross-cluster handoff ---------------------------------------------------

    def _frozen_globals(self, live: list[int]) -> set[int]:
        """Sensors that must not move.

        Two classes: sensors *excluded* at their current head (a
        blacklisted or departed radio cannot be assumed to obey a retune;
        absent ones are administratively out — their evidence still
        carries over if the roster moves around them), and sensors
        currently carrying *relay flow* in their cluster's routing — a
        relay that walks out strands every sensor routing through it, so
        it only moves once a re-plan no longer leans on it.
        """
        frozen: set[int] = set()
        for h in live:
            mac = self.macs[h]
            im = mac.phy.index_map
            frozen |= {int(im[l]) for l in mac._excluded()}
            for alternatives in mac.routing.flow_paths.values():
                for path, units in alternatives:
                    if units <= 0:
                        continue
                    frozen |= {
                        int(im[l]) for l in path[1:] if l != HEAD
                    }
        return frozen

    def _hears_into(self, g: int, dst: int) -> bool:
        """Whether sensor *g* has a bidirectional link into *dst*'s roster.

        Voronoi distance is the planning signal but radio reachability is
        the service: a sensor can be nearer to another head in meters yet
        only connected through its old cluster's relay chain.  One live
        link into the destination roster (member or head) is the cheap
        necessary condition the coordinator checks before moving a sensor
        that still has service where it is.
        """
        im = self.macs[dst].phy.index_map
        for t in im:
            t = int(t)
            if t != g and self.medium.hears(t, g) and self.medium.hears(g, t):
                return True
        return False

    def _retune(self, sensor: int, h: int) -> None:
        """Tune *sensor*'s radio to head *h*'s channel (heads never retune)."""
        medium = self.medium
        medium.set_channel(sensor, int(medium.channels[self.macs[h].head_trx.node]))

    def _record(self, move: HandoffMove, state: str) -> None:
        """Write the per-move record: *move* ended in *state* now."""
        self.events.append(
            FieldHandoffEvent(self.sim.now, move.sensor, move.src, move.dst, state)
        )

    # -- prepare -----------------------------------------------------------------

    def _prepare(self) -> None:
        cfg = self.config
        live = self._live()
        positions = self.medium.positions[: cfg.n_sensors]
        frozen = self._frozen_globals(live)
        probe = plan_field_reform(
            positions,
            self.head_positions,
            self.serving,
            reason="probe",
            live_heads=live,
            head_step_m=0.0,
            frozen_sensors=frozen,
        )
        # The field's pending membership delta is the count misassigned now,
        # replacing the last boundary's: the field either is or is not out of
        # shape, and a sensor that drifts out and back owes no re-form.
        self.tracker.note_cycle()
        self.tracker.joins_pending = probe.n_moves + len(probe.deferred)
        reason = self.tracker.due()
        if reason is None:
            return
        if cfg.handoff_head_step_m > 0.0:
            plan = plan_field_reform(
                positions,
                self.head_positions,
                self.serving,
                reason=reason,
                live_heads=live,
                head_step_m=cfg.handoff_head_step_m,
                frozen_sensors=frozen,
            )
        else:
            plan = dataclasses.replace(probe, reason=reason)
        staged = []
        roster_left = {
            h: len(self.macs[h].phy.index_map) - 1 for h in live
        }
        # Per-source masked hearing graphs for the bridge guard, updated
        # incrementally as moves are accepted so a batch never strands a
        # member through its combined removals.
        src_graph: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for m in plan.moves:
            if self.macs[m.src].halted or self.macs[m.dst].halted:
                continue  # planner already skips dead sources; stay safe
            if self.macs[m.src].mid_cycle or self.macs[m.dst].mid_cycle:
                # Token-mode overrun: an endpoint is inside a duty cycle.
                # Roster surgery only happens between cycles; wait.
                self._record(m, "deferred-busy")
                continue
            if roster_left[m.src] <= 1:
                # Never empty a cluster: a head with no members has no duty
                # cycle to announce the next re-form through.
                self._record(m, "deferred-src-empty")
                continue
            src_local = list(self.macs[m.src].phy.index_map[:-1]).index(m.sensor)
            covered_at_src = src_local not in self.macs[m.src].unreachable
            if covered_at_src and not self._hears_into(m.sensor, m.dst):
                # Nearer in meters, unreachable by radio: moving would trade
                # working multihop service for none.  A sensor already
                # uncovered at its source has nothing to lose and moves.
                self._record(m, "deferred-unreachable")
                continue
            src = self.macs[m.src]
            if m.src not in src_graph:
                src_graph[m.src] = prune_dead_nodes(
                    discovered_cluster(src.phy), src._excluded()
                )
            graph = src_graph[m.src]
            without = prune_dead_nodes(graph, {src_local})
            stranded = np.isfinite(graph.min_hop_counts()) & np.isinf(
                without.min_hop_counts()
            )
            stranded[src_local] = False
            if stranded.any():
                # The mover is a cut vertex: covered members route to the
                # head only through it.  The active-relay freeze catches
                # planned relays; this catches *potential* bridges in the
                # raw hearing graph.
                self._record(m, "deferred-bridge")
                continue
            src_graph[m.src] = without
            roster_left[m.src] -= 1
            roster_left[m.dst] += 1
            # PREPARE: retune while the field sleeps.  Commit re-checks
            # liveness; an abort retunes the radio back.
            self._retune(m.sensor, m.dst)
            staged.append(m)
        self._pending = (plan, staged)
        _obs.current().timeline_event(
            self.sim.now,
            "field-reform-prepare",
            reason=reason,
            staleness=plan.staleness,
            staged=len(staged),
            deferred=len(plan.deferred),
        )

    # -- commit ------------------------------------------------------------------

    def _commit(self) -> None:
        if self._pending is None:
            return
        plan, staged = self._pending
        self._pending = None
        now = self.sim.now
        committable = []
        for m in staged:
            # A source dead inside the window leaves its sensors to the
            # failover watchdog as a dead head's orphans (one mover per
            # sensor); every undone move retunes home so bookkeeping holds.
            if self.macs[m.src].halted:
                state = "aborted-src-dead"
            elif self.macs[m.dst].halted:
                state = "aborted-dst-dead"
            elif self.macs[m.src].mid_cycle or self.macs[m.dst].mid_cycle:
                state = "deferred-busy"
            else:
                committable.append(m)
                continue
            self._retune(m.sensor, m.src)
            self._record(m, state)
        if self.config.handoff_head_step_m > 0.0:
            self._apply_head_placement(plan)
        self.tracker.reset()
        if committable:
            # Each head's movers come in global-id order.
            self._hand_over(
                sorted((m.sensor, m.src, m.dst) for m in committable),
                "field-reform",
                hint=f"field re-form of {len(committable)} sensors t={now:g}",
            )
            for m in committable:
                self._record(m, "committed")
        committed, aborted = len(committable), len(staged) - len(committable)
        self.reform_events.append(
            FieldReformEvent(
                now, plan.reason, plan.staleness, committed, aborted, len(plan.deferred)
            )
        )
        _obs.current().timeline_event(
            now, "field-reform-commit", committed=committed, aborted=aborted
        )

    def _apply_head_placement(self, plan: FieldReformPlan) -> None:
        """Adopt the plan's quantization step: heads physically relocate."""
        all_pos = self.medium.positions.copy()
        moved = False
        for h in range(self.config.n_heads):
            if not np.array_equal(plan.head_positions[h], self.head_positions[h]):
                self.head_positions[h] = plan.head_positions[h]
                all_pos[self.config.n_sensors + h] = plan.head_positions[h]
                moved = True
        if moved:
            self.medium.update_positions(all_pos)


def _field_pending(macs: list[PollingClusterMac]) -> int:
    """Total queued application packets across every cluster's agents."""
    return sum(agent.pending_count for mac in macs for agent in mac.sensors)


@dataclass
class _RosterView:
    """Global-id view of the clusters a roster rebuild draws members from:
    each sensor's agent and radio, plus the exclusion evidence (evidence is
    about the node, not about who polls it)."""

    agents: dict[int, PollingSensorAgent]
    radios: dict[int, Transceiver]
    blacklisted: set[int]
    departed: set[int]
    absent: set[int]
    suspect_misses: dict[int, int]


def _roster_view(macs: Iterable[PollingClusterMac]) -> _RosterView:
    view = _RosterView({}, {}, set(), set(), set(), {})
    for mac in macs:
        im = [int(g) for g in mac.phy.index_map]
        view.blacklisted |= {im[l] for l in mac.blacklisted}
        view.departed |= {im[l] for l in mac.departed}
        view.absent |= {im[l] for l in mac.absent}
        view.suspect_misses.update(
            (im[l], c) for l, c in mac._suspect_misses.items()
        )
        for l, g in enumerate(im[:-1]):
            view.agents[g] = mac.sensors[l]
            view.radios[g] = mac.phy.transceivers[l]
    return view


def _rebuild_roster(
    mac: PollingClusterMac,
    roster: list[int],
    incoming: set[int],
    view: _RosterView,
    source_by_global: dict[int, CbrSource],
) -> tuple[ClusterPhy, list[PollingSensorAgent], dict]:
    """Rebuild head *mac*'s PHY and agents around a global-id *roster*.

    The one roster rebuild, behind :meth:`FieldCoordinator._hand_over`.
    *incoming* radios, already tuned to the head's channel, wake if they
    sleep on their old head's schedule; connectivity is rediscovered
    from the live medium.  When no member's local id changes, existing
    agents stay — an adoption can land mid-cycle, and in-flight relay
    buffers and assigned packets must survive it — and only incoming
    sensors get fresh agents.  Otherwise every member gets a fresh agent,
    so no state keyed by an old local id (``known_dead``, the buffers)
    outlives the shift.  Constructing an agent re-binds its radio's
    receive callback — for an incoming sensor, that *is* the takeover —
    and takes over the queued application data, re-stamped to the new
    local id, and the sensor's CBR source.  Returns the PHY, the agents
    and the evidence remapped to new local ids, ready for the MAC.
    """
    old_phy = mac.phy
    medium = old_phy.medium
    head_global = int(old_phy.index_map[-1])
    n = len(roster)
    new_phy = ClusterPhy(
        sim=mac.sim,
        cluster=Cluster(
            hears=np.zeros((n, n), dtype=bool),  # rediscovered below
            head_hears=np.zeros(n, dtype=bool),
        ),
        medium=medium,
        transceivers=[view.radios[g] for g in roster] + [old_phy.transceivers[-1]],
        index_map=roster + [head_global],
    )
    new_phy.cluster = discovered_cluster(new_phy)
    old_local = {int(g): l for l, g in enumerate(old_phy.index_map[:-1])}
    ids_kept = all(old_local.get(g, l) == l for l, g in enumerate(roster))
    agents: list[PollingSensorAgent] = []
    for local, g in enumerate(roster):
        old_agent = view.agents[g]
        if ids_kept and g in old_local:
            agent = old_agent
            agent.phy = new_phy
        else:
            agent = PollingSensorAgent(
                new_phy, local, mac.sizes, mac.timings, cluster_id=mac.cluster_id
            )
            for pkt in old_agent.own_queue:
                agent.own_queue.append(dataclasses.replace(pkt, origin=local))
            old_agent.own_queue.clear()
            source_by_global[g].deliver = agent.generate_packet
        if g in incoming and agent.trx.is_sleeping:
            agent.trx.wake()
        agents.append(agent)
    local_of = {g: l for l, g in enumerate(roster)}
    evidence = {
        "blacklisted": {local_of[g] for g in view.blacklisted if g in local_of},
        "departed": {local_of[g] for g in view.departed if g in local_of},
        "absent": {local_of[g] for g in view.absent if g in local_of},
        "suspect_misses": {
            l: view.suspect_misses[g]
            for l, g in enumerate(roster)
            if g in view.suspect_misses
        },
    }
    return new_phy, agents, evidence


def run_multicluster_simulation(
    config: MultiClusterConfig = MultiClusterConfig(),
) -> MultiClusterResult:
    """Run the shared-medium multi-cluster stack."""
    if config.mode not in ("channels", "token", "uncoordinated"):
        raise ValueError(f"unknown mode {config.mode!r}")
    if config.handoff != "off" and config.handoff not in HANDOFF_TRIGGERS:
        raise ValueError(f"unknown handoff policy {config.handoff!r}")
    tel = _obs.current()
    if not tel.enabled:
        return _run_multicluster(config, None)
    run_span = tel.begin(
        "run",
        "multicluster-sim",
        perf_counter(),
        clock="wall",
        seed=config.seed,
        n_heads=config.n_heads,
        mode=config.mode,
    )
    tel.root = run_span
    result = _run_multicluster(config, tel)
    tel.finish(
        run_span,
        perf_counter(),
        sim_time=result.elapsed,
        delivered=result.packets_delivered,
        collisions=result.collisions,
    )
    result.telemetry = tel
    return result


def _run_multicluster(
    config: MultiClusterConfig, tel: "_obs.Telemetry | None"
) -> MultiClusterResult:
    sim = Simulator()
    sim.telemetry = tel
    streams = RngStreams(config.seed)
    field_rng = streams.get("field")
    sensors = field_rng.uniform(0, config.field_m, size=(config.n_sensors, 2))
    heads = _head_layout(config.n_heads, config.field_m, streams.get("heads"))
    net = form_clusters(sensors, heads, comm_range=SENSOR_RANGE_M)

    # --- one shared medium over every sensor and every head -------------------
    all_positions = np.vstack([sensors, heads])
    n_total = all_positions.shape[0]
    prop = GROUND_SENSOR_PROPAGATION
    tx_power = np.full(n_total, sensor_power_for_range(prop, SENSOR_RANGE_M))
    for h in range(config.n_heads):
        tx_power[config.n_sensors + h] = _tx_power(
            net.clusters[h], prop, SENSOR_RANGE_M
        )[-1]
    medium = RadioMedium(
        sim=sim, positions=all_positions, tx_power_w=tx_power, propagation=prop
    )

    # --- field mobility (armed only when asked: bit-for-bit otherwise) -----------
    mobility: _FieldMobility | None = None
    if config.mobility_speed_mps > 0:
        mobility = _FieldMobility(
            sim=sim,
            medium=medium,
            n_sensors=config.n_sensors,
            speed_mps=config.mobility_speed_mps,
            cycle_length=config.cycle_length,
            n_cycles=config.n_cycles,
            field_m=config.field_m,
            base_seed=config.seed,
        )

    # --- channel assignment -----------------------------------------------------
    # Each cluster's medium indices, members then head: the coloring's
    # input and the cluster PHY's index map.
    rosters = [
        [int(m) for m in net.members[h]] + [config.n_sensors + h]
        for h in range(config.n_heads)
    ]
    if config.mode == "channels":
        channels = assign_channels(medium, rosters)
    else:
        channels = np.zeros(config.n_heads, dtype=np.int64)

    # --- per-cluster stacks on shared PHY -----------------------------------------
    macs: list[PollingClusterMac] = []
    all_agents = []
    for h, index_map in enumerate(rosters):
        transceivers = [Transceiver(sim, medium, g) for g in index_map]
        for g in index_map:
            medium.set_channel(g, int(channels[h]))
        phy = ClusterPhy(
            sim=sim,
            cluster=net.clusters[h],
            medium=medium,
            transceivers=transceivers,
            index_map=index_map,
        )
        # discover in-cluster connectivity from the shared radio; the MAC
        # plans strays beyond reach at zero and lists them unreachable
        phy.cluster = discovered_cluster(phy)
        mac = PollingClusterMac(
            phy, cycle_length=config.cycle_length, cluster_id=h,
            engine=config.engine,
            dead_after_misses=config.dead_after_misses,
            backup_k=config.backup_k,
        )
        macs.append(mac)
        all_agents.append(mac.sensors)

    # --- traffic --------------------------------------------------------------------
    sources = []
    source_by_global: dict[int, CbrSource] = {}
    for h, agents in enumerate(all_agents):
        cluster_sources = attach_cbr_sources(
            sim,
            agents,
            rate_bps=config.rate_bps,
            seed=config.seed * 101 + h,
        )
        sources.extend(cluster_sources)
        for agent, src in zip(agents, cluster_sources):
            source_by_global[int(net.members[h][agent.sensor])] = src

    # --- the field's membership (armed only when asked: bit-for-bit otherwise) ----
    coordinator: FieldCoordinator | None = None
    if config.head_failover or config.head_crashes or config.handoff != "off":
        # Constructed after _FieldMobility on purpose: both schedule
        # boundary events at build time, so the kernel's FIFO tie-break
        # runs each epoch's position update before the commit that acts
        # on it — and both before any head's wakeup at the same instant.
        coordinator = FieldCoordinator(
            sim=sim,
            config=config,
            net=net,
            medium=medium,
            macs=macs,
            sensor_positions=sensors,
            head_positions=heads,
            source_by_global=source_by_global,
        )
    if mobility is not None:
        if config.handoff != "off":
            mobility.staleness_probe = coordinator.current_staleness
        else:
            mobility.staleness_probe = lambda: serving_staleness(
                medium.positions[: config.n_sensors], heads, net.assignment
            )

    # --- start: aligned, staggered, or concurrent -------------------------------------
    if config.mode == "token":
        # Each head's nominal duty sizes its token window: a planning-only
        # run of its schedule (NULL_TELEMETRY keeps the run's phantom
        # requests out of the live trace).
        slot = MacTimings().poll_slot_time(
            medium.bitrate, DEFAULT_SIZES, DEFAULT_SIZES.data
        )
        nominal_slots = [
            OnlinePollingScheduler(
                mac.routing.routing_plan(), mac.oracle, telemetry=_obs.NULL_TELEMETRY
            ).run().slots_elapsed
            for mac in macs
        ]
        windows = TokenSchedule(
            duty_durations=[n * slot * 2.0 + 0.2 for n in nominal_slots]
        ).windows()
        for mac, (start, _) in zip(macs, windows):
            _start_delayed(sim, mac, config.n_cycles, start)
    else:
        for mac in macs:
            mac.start(config.n_cycles)

    sim.run(until=config.n_cycles * config.cycle_length)
    seen_trx: set[int] = set()
    for mac in macs:
        # Adopted transceivers appear in two PHYs; finalize each radio once
        # (it would be harmless anyway — the meter integrates zero time on
        # the second call at the same instant — but keep the ledger obvious).
        for trx in mac.phy.transceivers:
            if id(trx) not in seen_trx:
                seen_trx.add(id(trx))
                trx.finalize()
    packets_generated = sum(s.generated for s in sources)
    _validate.check_delivered_stream(
        [packet for mac in macs for packet in mac.delivered_packets()],
        packets_generated,
        sim_time=sim.now,
        hint=f"MultiClusterConfig(seed={config.seed}, n_sensors={config.n_sensors}, "
        f"n_heads={config.n_heads}, n_cycles={config.n_cycles})",
    )
    return MultiClusterResult(
        config=config,
        net=net,
        macs=macs,
        channels=channels,
        elapsed=sim.now,
        packets_generated=packets_generated,
        collisions=medium.tracer.counts.get("phy_rx_collision", 0),
        coordinator=coordinator,
        mobility_epochs=mobility.epochs if mobility is not None else 0,
        final_assignment_staleness=(
            0.0 if mobility is None else float(mobility.staleness_probe())
        ),
        staleness_trajectory=(
            () if mobility is None else tuple(mobility.staleness_trajectory)
        ),
        field_coverage=_field_coverage(macs, config.n_sensors),
    )


def _field_coverage(macs: list[PollingClusterMac], n_sensors: int) -> float:
    """Ground-truth serviceable fraction of the field at this instant.

    A sensor counts as covered when some live head's roster contains it,
    it is not excluded (blacklisted / departed / absent), and the *current*
    radio geometry gives it a finite hop path to that head.  This is the
    quantity field re-forming defends: under mobility with handoff off,
    drifted boundary sensors stay on a stale roster that can no longer
    physically reach them, and coverage decays even though every head is
    alive.  Pure post-run measurement — no events, no RNG.
    """
    if n_sensors <= 0:
        return 1.0
    served: set[int] = set()
    for mac in macs:
        if mac.halted:
            continue
        phy = mac.phy
        if phy.index_map is None or phy.n_sensors == 0:
            continue
        # Pruned (excluded) members are heard by nothing: never finite.
        hops = prune_dead_nodes(
            discovered_cluster(phy), mac._excluded()
        ).min_hop_counts()
        served.update(int(phy.index_map[l]) for l in np.flatnonzero(np.isfinite(hops)))
    return len(served) / n_sensors


def _start_delayed(sim: Simulator, mac: PollingClusterMac, n_cycles: int, delay: float) -> None:
    """Put the cluster to sleep until its token window, then run."""
    if delay <= 0:
        mac.start(n_cycles)
        return
    for agent in mac.sensors:
        agent.trx.sleep()
        sim.at(delay, agent.trx.wake).owner = agent.trx
    sim.at(delay, mac.start, n_cycles)

"""Binds a :class:`~repro.faults.plan.FaultPlan` to a running PHY stack.

The injector is the only component allowed to touch simulator state on the
plan's behalf: it schedules crash/stun events, samples energy meters for
battery deaths, installs the bursty-link process on the medium, executes
churn (join/leave) and mobility epochs, and re-parameterizes the channel
under drift.  It also keeps the ground-truth fault log that degradation
metrics compare the head's *inferred* blacklist against.

Everything here is deterministic given ``(plan, base_seed)``: fault times are
plan constants, battery checks run on a fixed sampling clock, and the only
randomness lives on dedicated streams — Gilbert–Elliott transitions on the
fault stream, per-node drift steps on the mobility stream — so a faulted run
is exactly repeatable, and an empty plan schedules nothing at all.

Dynamic-network event ordering (DESIGN.md §11): mobility and channel-drift
epochs fire at duty-cycle boundaries ``k * cycle_length``.  They are
scheduled at construction time, before the MAC schedules anything, so the
kernel's FIFO tie-break guarantees they execute *before* the head's wakeup
at the same timestamp — a cycle always runs against the geometry and channel
parameters in force at its start, and slot-level PHY inside the cycle stays
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..mac.base import ClusterPhy
from ..sim.kernel import Simulator
from ..sim.rng import mobility_rng
from .gilbert import GilbertElliottLoss
from .plan import FaultPlan

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the ground-truth fault log."""

    time: float
    kind: str  # "crash" | "stun" | "recover" | "battery-death" | "join" | "leave"
    node: int


class FaultInjector:
    """Executes a fault plan against one cluster's PHY.

    Parameters
    ----------
    sim, phy:
        the simulator and the cluster PHY whose sensors the plan names
        (local sensor indices ``0..n-1``).
    plan:
        the declarative fault description.
    base_seed:
        seeds the fault RNG stream (bursty links) and the mobility stream;
        crash/stun/churn times come straight from the plan.
    cycle_length, n_cycles:
        the duty-cycle geometry — required only when the plan carries
        mobility or channel drift, whose epochs fire at cycle boundaries.
    joiner_ids:
        local sensor ids pre-allocated for the plan's joins, in plan order
        (the harness extends the deployment before building the PHY).
        Required when ``plan.joins`` is non-empty; the injector puts those
        radios to sleep at construction and wakes each at its join time.
    """

    def __init__(
        self,
        sim: Simulator,
        phy: ClusterPhy,
        plan: FaultPlan,
        base_seed: int = 0,
        cycle_length: float | None = None,
        n_cycles: int | None = None,
        joiner_ids: list[int] | None = None,
    ):
        self.sim = sim
        self.phy = phy
        self.plan = plan
        self.base_seed = int(base_seed)
        self.dead: set[int] = set()
        self.stunned: set[int] = set()
        self.departed: set[int] = set()
        self.joined: set[int] = set()
        self.events: list[FaultEvent] = []
        self.link_loss: GilbertElliottLoss | None = None
        # The membership layer (the head MAC) binds itself here after
        # construction; join/leave events call ``notify_join``/``notify_leave``
        # on it.  Events only fire inside ``sim.run``, which starts after the
        # MAC exists, so late binding is safe.
        self.membership_listener = None
        self.mobility_epochs = 0
        self.drift_epochs = 0
        self.total_displacement_m = 0.0
        n = phy.n_sensors
        for fault in plan.crashes:
            if fault.node >= n:
                raise ValueError(f"crash names sensor {fault.node}, cluster has {n}")
            sim.at(fault.at, self._crash, fault.node, "crash")
        for fault in plan.stuns:
            if fault.node >= n:
                raise ValueError(f"stun names sensor {fault.node}, cluster has {n}")
            sim.at(fault.at, self._stun, fault.node, fault.duration)
        for fault in plan.batteries:
            if fault.node >= n:
                raise ValueError(
                    f"battery fault names sensor {fault.node}, cluster has {n}"
                )
            sim.at(
                fault.check_interval,
                self._check_battery,
                fault.node,
                fault.capacity_j,
                fault.check_interval,
            )
        # -- churn ------------------------------------------------------------
        self.pending_joiners: set[int] = set()
        if plan.joins:
            if joiner_ids is None or len(joiner_ids) != len(plan.joins):
                raise ValueError(
                    f"plan has {len(plan.joins)} joins; the harness must "
                    "pre-allocate exactly that many joiner slots (joiner_ids)"
                )
            for join, node in zip(plan.joins, joiner_ids):
                if not 0 <= node < n:
                    raise ValueError(f"joiner id {node} out of range for n={n}")
                self.pending_joiners.add(node)
                phy.trx(node).sleep()  # dark until its join time
                sim.at(join.at, self._join, node)
        for leave in plan.leaves:
            if leave.node >= n:
                raise ValueError(f"leave names sensor {leave.node}, cluster has {n}")
            sim.at(leave.at, self._leave, leave.node)
        # -- cycle-boundary epochs (mobility, channel drift) -------------------
        needs_cycles = plan.mobility is not None or plan.channel_drift is not None
        if needs_cycles and (cycle_length is None or n_cycles is None):
            raise ValueError(
                "mobility/channel-drift epochs fire at duty-cycle boundaries; "
                "pass cycle_length and n_cycles to the injector"
            )
        self.cycle_length = cycle_length
        self._mob_rngs: dict[int, np.random.Generator] = {}
        if plan.mobility is not None:
            mob = plan.mobility
            mobile = (
                tuple(range(n)) if mob.nodes is None else tuple(mob.nodes)
            )
            for node in mobile:
                if node >= n:
                    raise ValueError(
                        f"mobility names sensor {node}, cluster has {n}"
                    )
            self._mobile_nodes = mobile
            for node in mobile:
                self._mob_rngs[node] = mobility_rng(self.base_seed, node)
            if mob.bounds is not None:
                self._bounds = mob.bounds
            else:
                pos = phy.medium.positions
                self._bounds = (
                    float(pos[:, 0].min()),
                    float(pos[:, 0].max()),
                    float(pos[:, 1].min()),
                    float(pos[:, 1].max()),
                )
            for k in range(1, int(n_cycles)):
                sim.at(k * cycle_length, self._mobility_epoch)
        if plan.bursty_links is not None:
            ge = plan.bursty_links
            self.link_loss = GilbertElliottLoss(
                p_good_to_bad=ge.p_good_to_bad,
                p_bad_to_good=ge.p_bad_to_good,
                loss_good=ge.loss_good,
                loss_bad=ge.loss_bad,
                coherence_s=ge.coherence_s,
                seed=self.base_seed,
            )
            phy.medium.link_loss = self.link_loss
        if plan.channel_drift is not None:
            for k in range(1, int(n_cycles)):
                sim.at(k * cycle_length, self._drift_epoch)

    # -- fault executors ----------------------------------------------------------

    def _crash(self, node: int, kind: str) -> None:
        if node in self.dead or node in self.departed:
            return
        self.phy.trx(node).fail()
        self.dead.add(node)
        self.events.append(FaultEvent(time=self.sim.now, kind=kind, node=node))

    def _stun(self, node: int, duration: float) -> None:
        if node in self.dead or node in self.departed:
            return
        self.phy.trx(node).stun(duration)
        self.stunned.add(node)
        self.events.append(FaultEvent(time=self.sim.now, kind="stun", node=node))
        self.sim.schedule(duration, self._record_recovery, node)

    def _record_recovery(self, node: int) -> None:
        self.stunned.discard(node)
        if node not in self.dead and node not in self.departed:
            self.events.append(
                FaultEvent(time=self.sim.now, kind="recover", node=node)
            )

    def _check_battery(self, node: int, capacity_j: float, interval: float) -> None:
        if node in self.dead or node in self.departed:
            return
        meter = self.phy.trx(node).meter
        # Include the in-progress dwell so death can't lag a busy period.
        pending = meter.params.power(meter.state) * (self.sim.now - meter.last_change)
        if meter.consumed_j + pending >= capacity_j:
            self._crash(node, "battery-death")
            return
        self.sim.schedule(interval, self._check_battery, node, capacity_j, interval)

    # -- churn executors -----------------------------------------------------------

    def _join(self, node: int) -> None:
        if node in self.dead or node in self.departed:
            return
        self.pending_joiners.discard(node)
        self.phy.trx(node).wake()
        self.joined.add(node)
        self.events.append(FaultEvent(time=self.sim.now, kind="join", node=node))
        if self.membership_listener is not None:
            self.membership_listener.notify_join(node)

    def _leave(self, node: int) -> None:
        if node in self.dead or node in self.departed:
            return
        # Announced departure: physically identical to fail-stop (the radio
        # never speaks again), but the membership layer learns it directly
        # instead of burning detection cycles on inference.
        self.phy.trx(node).fail()
        self.departed.add(node)
        self.events.append(FaultEvent(time=self.sim.now, kind="leave", node=node))
        if self.membership_listener is not None:
            self.membership_listener.notify_leave(node)

    # -- cycle-boundary epochs -------------------------------------------------------

    @staticmethod
    def _reflect(v: float, lo: float, hi: float) -> float:
        """Reflect *v* back into [lo, hi] (bounded drift, no edge pile-up)."""
        span = hi - lo
        if span <= 0:
            return lo
        t = (v - lo) % (2.0 * span)
        return lo + (span - abs(t - span))

    def _mobility_epoch(self) -> None:
        """One bounded-drift step per mobile node, then refresh the medium.

        Runs at a duty-cycle boundary (scheduled before the MAC's events at
        the same timestamp), so no frame is in the air: the whole cycle that
        follows sees one consistent geometry.  Each node draws from its own
        mobility substream — skipping dead/departed/not-yet-joined nodes
        cannot perturb any other node's trajectory.
        """
        mob = self.plan.mobility
        step_max = mob.speed_mps * float(self.cycle_length)
        xmin, xmax, ymin, ymax = self._bounds
        positions = self.phy.medium.positions.copy()
        moved = False
        for node in self._mobile_nodes:
            if (
                node in self.dead
                or node in self.departed
                or node in self.pending_joiners
            ):
                continue
            rng = self._mob_rngs[node]
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            dist = float(rng.uniform(0.0, step_max))
            x = self._reflect(
                positions[node, 0] + dist * math.cos(angle), xmin, xmax
            )
            y = self._reflect(
                positions[node, 1] + dist * math.sin(angle), ymin, ymax
            )
            dx = x - positions[node, 0]
            dy = y - positions[node, 1]
            self.total_displacement_m += math.hypot(dx, dy)
            positions[node, 0] = x
            positions[node, 1] = y
            moved = True
        if moved:
            self.phy.medium.update_positions(positions)
        self.mobility_epochs += 1

    def _drift_epoch(self) -> None:
        """Re-parameterize the Gilbert–Elliott process for the next cycle."""
        drift = self.plan.channel_drift
        ge = self.plan.bursty_links
        s = math.sin(2.0 * math.pi * self.sim.now / drift.period_s + drift.phase)
        loss_bad = min(1.0, max(0.0, ge.loss_bad + drift.loss_bad_amplitude * s))
        p_gb = min(1.0, max(0.0, ge.p_good_to_bad + drift.p_gb_amplitude * s))
        self.link_loss.reparameterize(p_good_to_bad=p_gb, loss_bad=loss_bad)
        self.drift_epochs += 1

    # -- queries ------------------------------------------------------------------

    def is_dead(self, node: int) -> bool:
        return node in self.dead

    def death_times(self) -> dict[int, float]:
        """node -> time of permanent death (crash or battery)."""
        return {
            e.node: e.time
            for e in self.events
            if e.kind in ("crash", "battery-death")
        }

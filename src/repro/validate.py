"""Runtime invariant monitor for the polling stack (DESIGN.md §8).

The paper's correctness claims rest on physical invariants the code used to
assume silently: packet conservation along relay paths, at most M compatible
transmissions per slot (Sec. III-D), flow conservation and per-sensor load
≤ δ in the min-max routing (Sec. III-A), and monotone battery drain.  This
module makes them *checked* properties: the hot layers call the check
functions below at natural boundaries (end of a polling phase, end of a flow
solve, energy snapshot, every kernel event), and every breach is recorded as
a structured :class:`InvariantViolation` carrying the simulation time, the
implicated node ids, and a minimal repro hint.

Strictness is pluggable per :class:`InvariantMonitor` and defaults to the
process-wide monitor configured by the ``REPRO_VALIDATE`` environment
variable:

* ``off``    — checks short-circuit; zero overhead beyond one branch.
* ``warn``   — (default) violations are recorded and emitted as
  :class:`InvariantWarning`\\ s; execution continues.
* ``strict`` — the first violation raises :class:`InvariantError`.

Scoped overrides nest::

    from repro import validate
    with validate.strict():
        run_polling_simulation(config)   # raises on the first violation

Healthy runs record nothing, so ``warn`` mode's cost is the checks
themselves — each is O(size of the artifact it checks), far below the work
that produced the artifact (see DESIGN.md §8 for the catalog and measured
overhead).
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import-cycle guards only
    from .core.online import OnlinePollingScheduler
    from .core.schedule import PollingSchedule
    from .interference.base import CompatibilityOracle
    from .metrics.energy import EnergyReport
    from .routing.backup import BackupRoutes
    from .routing.maxflow import FlowNetwork
    from .routing.minmax import FlowSolution
    from .topology.cluster import Cluster

__all__ = [
    "MODES",
    "InvariantViolation",
    "InvariantError",
    "InvariantWarning",
    "InvariantMonitor",
    "MONITOR",
    "get_monitor",
    "set_mode",
    "strict",
    "warn",
    "off",
    "check_schedule",
    "check_polling_outcome",
    "check_flow_solution",
    "check_network_flow",
    "check_energy_report",
    "check_delivered_stream",
    "check_backup_routes",
    "check_dynamic_membership",
    "check_reform_conservation",
    "check_handoff_conservation",
    "check_single_membership",
]

MODES = ("off", "warn", "strict")
"""Valid strictness levels, least to most severe."""

_ENV_VAR = "REPRO_VALIDATE"


@dataclass(frozen=True)
class InvariantViolation:
    """One observed breach of a runtime invariant.

    ``invariant`` is a stable dotted identifier from the catalog in
    DESIGN.md §8 (e.g. ``"schedule.group-size"``); ``hint`` is the smallest
    description that reproduces the offending run (typically the config/seed
    of the simulation that was executing).
    """

    invariant: str
    message: str
    sim_time: float | None = None
    nodes: tuple[int, ...] = ()
    hint: str = ""

    def __str__(self) -> str:
        at = "" if self.sim_time is None else f" at t={self.sim_time:.6f}"
        who = f" nodes={list(self.nodes)}" if self.nodes else ""
        how = f" [repro: {self.hint}]" if self.hint else ""
        return f"{self.invariant}{at}{who}: {self.message}{how}"


class InvariantError(RuntimeError):
    """Raised in ``strict`` mode; carries the violation that fired."""

    def __init__(self, violation: InvariantViolation):
        super().__init__(str(violation))
        self.violation = violation


class InvariantWarning(UserWarning):
    """Emitted once per violation in ``warn`` mode."""


class InvariantMonitor:
    """Records invariant violations at a configurable strictness.

    A monitor is cheap, stateful, and pluggable: the process-wide
    :data:`MONITOR` serves the wired-in call sites, while tests construct
    private monitors to collect violations without touching global state.
    """

    def __init__(self, mode: str | None = None):
        if mode is None:
            mode = os.environ.get(_ENV_VAR, "warn")
        self.mode = mode
        self.violations: list[InvariantViolation] = []
        # Observers notified of every recorded violation (before a strict
        # raise).  The telemetry layer (repro.obs) subscribes here so
        # violations surface as trace events; listeners must never raise.
        self.listeners: list = []

    @property
    def mode(self) -> str:
        return self._mode

    @mode.setter
    def mode(self, value: str) -> None:
        if value not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {value!r}")
        self._mode = value

    @property
    def enabled(self) -> bool:
        return self._mode != "off"

    def record(
        self,
        invariant: str,
        message: str,
        sim_time: float | None = None,
        nodes: Iterable[int] = (),
        hint: str = "",
        raise_strict: bool = True,
    ) -> InvariantViolation | None:
        """Register a violation according to the current mode.

        ``raise_strict=False`` lets a call site that already raises its own
        exception (the sim kernel's :class:`SimulationError`) still log the
        event without the monitor pre-empting the native error type.
        """
        if self._mode == "off":
            return None
        violation = InvariantViolation(
            invariant=invariant,
            message=message,
            sim_time=sim_time,
            nodes=tuple(int(n) for n in nodes),
            hint=hint,
        )
        self.violations.append(violation)
        for listener in self.listeners:
            listener(violation)
        if self._mode == "strict" and raise_strict:
            raise InvariantError(violation)
        warnings.warn(str(violation), InvariantWarning, stacklevel=3)
        return violation

    # -- scoping -----------------------------------------------------------------

    def mark(self) -> int:
        """A position in the violation log; pair with :meth:`since`."""
        return len(self.violations)

    def since(self, mark: int) -> list[InvariantViolation]:
        """Violations recorded after :meth:`mark` returned *mark*."""
        return list(self.violations[mark:])

    @contextmanager
    def at_mode(self, mode: str) -> Iterator["InvariantMonitor"]:
        """Temporarily run this monitor at *mode* (nests and restores)."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        previous = self._mode
        self._mode = mode
        try:
            yield self
        finally:
            self._mode = previous

    @contextmanager
    def capture(self) -> Iterator[list[InvariantViolation]]:
        """Yield a list that receives every violation recorded in the block."""
        start = self.mark()
        box: list[InvariantViolation] = []
        try:
            yield box
        finally:
            box.extend(self.since(start))


MONITOR = InvariantMonitor()
"""The process-wide monitor all wired-in call sites consult by default."""


def get_monitor() -> InvariantMonitor:
    return MONITOR


def set_mode(mode: str) -> None:
    """Set the process-wide strictness (``off`` / ``warn`` / ``strict``)."""
    MONITOR.mode = mode


def strict():
    """Scoped strict mode: ``with validate.strict(): ...`` raises on breach."""
    return MONITOR.at_mode("strict")


def warn():
    """Scoped warn mode (the default): record + warn, keep running."""
    return MONITOR.at_mode("warn")


def off():
    """Scoped off mode: disable all wired-in checks inside the block."""
    return MONITOR.at_mode("off")


def _m(monitor: InvariantMonitor | None) -> InvariantMonitor:
    return MONITOR if monitor is None else monitor


# ---------------------------------------------------------------------------
# Check functions — each validates one artifact and records every breach.
# They all early-return in ``off`` mode and return the number of violations
# recorded (0 for a healthy artifact), so call sites can stay one-liners.
# ---------------------------------------------------------------------------


def check_schedule(
    schedule: "PollingSchedule",
    oracle: "CompatibilityOracle",
    monitor: InvariantMonitor | None = None,
    sim_time: float | None = None,
    hint: str = "",
) -> int:
    """Sec. III-D slot invariants: ≤ M transmissions, node-disjoint,
    radio-compatible — re-checked on the *final* schedule, independently of
    the greedy insertion logic that built it."""
    from .core.transmissions import structurally_ok

    mon = _m(monitor)
    if not mon.enabled:
        return 0
    found = 0
    m = oracle.max_group_size
    for t, group in enumerate(schedule.slots):
        if not group:
            continue
        if len(group) > m:
            found += 1
            mon.record(
                "schedule.group-size",
                f"slot {t} holds {len(group)} transmissions, probed limit M={m}",
                sim_time=sim_time,
                nodes=sorted({tx.sender for tx in group}),
                hint=hint,
            )
        if not structurally_ok(group):
            found += 1
            mon.record(
                "schedule.node-reuse",
                f"slot {t} uses a node in two transmissions: "
                + ", ".join(str(tx) for tx in group),
                sim_time=sim_time,
                nodes=sorted({tx.sender for tx in group} | {tx.receiver for tx in group}),
                hint=hint,
            )
        if len(group) >= 2 and len(group) <= m:
            if not oracle.compatible([tx.link for tx in group]):
                found += 1
                mon.record(
                    "schedule.incompatible-group",
                    f"slot {t} group fails the compatibility oracle: "
                    + ", ".join(str(tx) for tx in group),
                    sim_time=sim_time,
                    nodes=sorted({tx.sender for tx in group}),
                    hint=hint,
                )
    return found


def check_polling_outcome(
    scheduler: "OnlinePollingScheduler",
    monitor: InvariantMonitor | None = None,
    sim_time: float | None = None,
    hint: str = "",
) -> int:
    """Per-phase packet conservation (Table 1 termination contract):
    every request generated is either delivered or explicitly written off
    (retry-exhausted / blacklisted), never both and never silently lost."""
    mon = _m(monitor)
    if not mon.enabled:
        return 0
    found = 0
    all_ids = {req.request_id for req in scheduler.pool.requests}
    delivered = set(scheduler.schedule.delivered)
    failed = set(scheduler.failed)
    both = delivered & failed
    if both:
        found += 1
        mon.record(
            "polling.double-account",
            f"requests {sorted(both)} are both delivered and failed",
            sim_time=sim_time,
            nodes=sorted(
                {r.sensor for r in scheduler.pool.requests if r.request_id in both}
            ),
            hint=hint,
        )
    missing = all_ids - delivered - failed
    if missing:
        found += 1
        mon.record(
            "polling.conservation",
            f"{len(missing)} of {len(all_ids)} requests neither delivered nor "
            f"written off (ids {sorted(missing)[:8]}...): generated != "
            "delivered + lost + blacklisted-pending",
            sim_time=sim_time,
            nodes=sorted(
                {r.sensor for r in scheduler.pool.requests if r.request_id in missing}
            ),
            hint=hint,
        )
    phantom = (delivered | failed) - all_ids
    if phantom:
        found += 1
        mon.record(
            "polling.conservation",
            f"accounted request ids {sorted(phantom)[:8]} were never generated",
            sim_time=sim_time,
            hint=hint,
        )
    for sensor in scheduler.blacklist:
        leftover = [
            r.request_id
            for r in scheduler.pool.requests
            if r.sensor == sensor
            and r.request_id not in delivered
            and r.request_id not in failed
        ]
        if leftover:
            found += 1
            mon.record(
                "polling.conservation",
                f"blacklisted sensor {sensor} left requests {leftover} pending "
                "instead of written off",
                sim_time=sim_time,
                nodes=(sensor,),
                hint=hint,
            )
    return found


def check_flow_solution(
    cluster: "Cluster",
    solution: "FlowSolution",
    monitor: InvariantMonitor | None = None,
    hint: str = "",
) -> int:
    """Sec. III-A routing invariants on a decomposed solution: demand met
    per sensor, every hop a real hearing-graph edge, per-sensor loads within
    the capacities the search certified, and positive planning energy."""
    from .topology.cluster import HEAD

    mon = _m(monitor)
    if not mon.enabled:
        return 0
    found = 0
    n = cluster.n_sensors
    loads_from_paths = [0] * n
    for sensor in range(n):
        demand = int(cluster.packets[sensor])
        bundles = solution.flow_paths.get(sensor, [])
        routed = sum(units for _, units in bundles)
        if routed != demand:
            found += 1
            mon.record(
                "flow.conservation",
                f"sensor {sensor} generates {demand} packets but the "
                f"decomposition routes {routed}",
                nodes=(sensor,),
                hint=hint,
            )
        for path, units in bundles:
            if units <= 0:
                found += 1
                mon.record(
                    "flow.conservation",
                    f"sensor {sensor} path {path} carries non-positive "
                    f"volume {units}",
                    nodes=(sensor,),
                    hint=hint,
                )
            if path and (path[0] != sensor or path[-1] != HEAD):
                found += 1
                mon.record(
                    "flow.path-invalid",
                    f"sensor {sensor} path {path} must start at the sensor "
                    "and end at the head",
                    nodes=(sensor,),
                    hint=hint,
                )
            for a, b in zip(path, path[1:]):
                ok = bool(cluster.head_hears[a]) if b == HEAD else bool(cluster.hears[b, a])
                if not ok:
                    found += 1
                    mon.record(
                        "flow.path-invalid",
                        f"hop {a}->{'head' if b == HEAD else b} on sensor "
                        f"{sensor}'s path is not a hearing-graph edge",
                        nodes=(a,) if b == HEAD else (a, b),
                        hint=hint,
                    )
            for node in path[:-1]:
                loads_from_paths[node] += units
    for sensor in range(n):
        if int(solution.loads[sensor]) != loads_from_paths[sensor]:
            found += 1
            mon.record(
                "flow.load-mismatch",
                f"sensor {sensor} reports load {int(solution.loads[sensor])} "
                f"but its decomposed paths carry {loads_from_paths[sensor]}",
                nodes=(sensor,),
                hint=hint,
            )
        cap = int(solution.capacities[sensor])
        if loads_from_paths[sensor] > cap:
            found += 1
            mon.record(
                "flow.capacity",
                f"sensor {sensor} load {loads_from_paths[sensor]} exceeds its "
                f"certified capacity {cap} (δ / floor(λ·e))",
                nodes=(sensor,),
                hint=hint,
            )
        if loads_from_paths[sensor] > 0 and float(cluster.energy[sensor]) <= 0:
            found += 1
            mon.record(
                "flow.energy",
                f"sensor {sensor} is routed load {loads_from_paths[sensor]} "
                f"with non-positive residual energy {float(cluster.energy[sensor])}",
                nodes=(sensor,),
                hint=hint,
            )
    return found


def check_network_flow(
    net: "FlowNetwork",
    source: int,
    sink: int,
    monitor: InvariantMonitor | None = None,
    hint: str = "",
) -> int:
    """Raw max-flow sanity on the node-split network: capacity respected on
    every arc, flow conserved at every interior node."""
    mon = _m(monitor)
    if not mon.enabled:
        return 0
    found = 0
    imbalance = [0] * net.n_nodes
    for eid in range(0, net.edge_count, 2):
        u, v = net.edge_endpoints(eid)
        f = net.edge_flow(eid)
        cap = net.edge_capacity(eid)
        if f < 0 or f > cap:
            found += 1
            mon.record(
                "flow.capacity",
                f"network edge {u}->{v} carries flow {f} outside [0, {cap}]",
                hint=hint,
            )
        imbalance[u] += f
        imbalance[v] -= f
    for node in range(net.n_nodes):
        if node in (source, sink):
            continue
        if imbalance[node] != 0:
            found += 1
            mon.record(
                "flow.conservation",
                f"network node {node} violates conservation by {imbalance[node]} units",
                hint=hint,
            )
    return found


def check_energy_report(
    report: "EnergyReport",
    elapsed: float | None = None,
    monitor: InvariantMonitor | None = None,
    hint: str = "",
) -> int:
    """Energy accounting invariants: consumption and dwell times are finite
    and non-negative (the meter only ever accumulates — battery energy is
    monotone non-increasing), and no sensor's awake+asleep time exceeds the
    wall clock."""
    import numpy as np

    mon = _m(monitor)
    if not mon.enabled:
        return 0
    found = 0
    fields = {
        "consumed_j": report.consumed_j,
        "active_s": report.active_s,
        "sleep_s": report.sleep_s,
        "tx_s": report.tx_s,
        "rx_s": report.rx_s,
    }
    for name, values in fields.items():
        values = np.asarray(values, dtype=float)
        bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
        if bad.size:
            found += 1
            mon.record(
                "energy.negative",
                f"{name} has negative or non-finite entries for sensors "
                f"{bad.tolist()} (battery drain must be monotone, residuals "
                "non-negative)",
                nodes=bad.tolist(),
                hint=hint,
            )
    if elapsed is not None and elapsed > 0:
        total = np.asarray(report.active_s, dtype=float) + np.asarray(
            report.sleep_s, dtype=float
        )
        tol = 1e-6 * max(1.0, elapsed)
        over = np.flatnonzero(total > elapsed + tol)
        if over.size:
            found += 1
            mon.record(
                "energy.accounting",
                f"sensors {over.tolist()} account more awake+asleep time than "
                f"the {elapsed:.6f}s that elapsed",
                sim_time=elapsed,
                nodes=over.tolist(),
                hint=hint,
            )
    return found


def check_backup_routes(
    cluster: "Cluster",
    routes: "BackupRoutes",
    monitor: InvariantMonitor | None = None,
    hint: str = "",
) -> int:
    """Survivability invariants on precomputed backup paths (DESIGN.md §9):
    every backup is a real relaying path of the hearing graph, visits no
    relay twice, and its interior relays are disjoint both from the sensor's
    primary flow paths and from the sensor's other backups — so the death of
    one interior relay never invalidates the whole bundle."""
    from .topology.cluster import HEAD

    mon = _m(monitor)
    if not mon.enabled:
        return 0
    found = 0
    for sensor, paths in sorted(routes.backups.items()):
        primary = routes.primary_interiors.get(sensor, frozenset())
        claimed: dict[int, int] = {}  # interior relay -> backup index
        for idx, path in enumerate(paths):
            if len(path) < 2 or path[0] != sensor or path[-1] != HEAD:
                found += 1
                mon.record(
                    "backup.path-invalid",
                    f"sensor {sensor} backup {idx} {path} must start at the "
                    "sensor and end at the head",
                    nodes=(sensor,),
                    hint=hint,
                )
                continue
            if len(set(path[:-1])) != len(path) - 1:
                found += 1
                mon.record(
                    "backup.path-invalid",
                    f"sensor {sensor} backup {idx} {path} revisits a relay",
                    nodes=(sensor,),
                    hint=hint,
                )
            for a, b in zip(path, path[1:]):
                ok = (
                    bool(cluster.head_hears[a])
                    if b == HEAD
                    else bool(cluster.hears[b, a])
                )
                if not ok:
                    found += 1
                    mon.record(
                        "backup.path-invalid",
                        f"hop {a}->{'head' if b == HEAD else b} on sensor "
                        f"{sensor}'s backup {idx} is not a hearing-graph edge",
                        nodes=(a,) if b == HEAD else (a, b),
                        hint=hint,
                    )
            for node in path[1:-1]:
                if node in primary:
                    found += 1
                    mon.record(
                        "backup.disjointness",
                        f"sensor {sensor} backup {idx} routes through relay "
                        f"{node}, which lies on a primary path of {sensor}",
                        nodes=(sensor, node),
                        hint=hint,
                    )
                if node in claimed:
                    found += 1
                    mon.record(
                        "backup.disjointness",
                        f"sensor {sensor} backups {claimed[node]} and {idx} "
                        f"share interior relay {node}",
                        nodes=(sensor, node),
                        hint=hint,
                    )
                claimed[node] = idx
    return found


def check_dynamic_membership(
    solution: "FlowSolution",
    excluded: Iterable[int],
    monitor: InvariantMonitor | None = None,
    sim_time: float | None = None,
    hint: str = "",
) -> int:
    """Dynamic-membership invariant (DESIGN.md §11): no demand is routed to,
    from, or through a node the head knows to be gone — departed (announced
    leave), blacklisted, or not yet joined.  Checked on every routing
    solution the MAC adopts after a repair or a re-form."""
    mon = _m(monitor)
    if not mon.enabled:
        return 0
    gone = {int(node) for node in excluded}
    if not gone:
        return 0
    found = 0
    for sensor, bundles in sorted(solution.flow_paths.items()):
        if sensor in gone and any(units > 0 for _, units in bundles):
            found += 1
            mon.record(
                "dynamic.excluded-routed",
                f"excluded sensor {sensor} still has "
                f"{sum(u for _, u in bundles)} units of demand planned",
                sim_time=sim_time,
                nodes=(sensor,),
                hint=hint,
            )
        for path, units in bundles:
            if units <= 0:
                continue
            bad = [node for node in path[:-1] if node in gone and node != sensor]
            if bad:
                found += 1
                mon.record(
                    "dynamic.excluded-routed",
                    f"sensor {sensor} path {path} relays through excluded "
                    f"node(s) {bad}",
                    sim_time=sim_time,
                    nodes=(sensor, *bad),
                    hint=hint,
                )
    for node in gone:
        if 0 <= node < len(solution.loads) and int(solution.loads[node]) > 0:
            found += 1
            mon.record(
                "dynamic.excluded-routed",
                f"excluded node {node} carries planned load "
                f"{int(solution.loads[node])}",
                sim_time=sim_time,
                nodes=(node,),
                hint=hint,
            )
    return found


def check_reform_conservation(
    pending_before: int,
    pending_after: int,
    monitor: InvariantMonitor | None = None,
    sim_time: float | None = None,
    hint: str = "",
) -> int:
    """Re-form boundary conservation (DESIGN.md §11): queued application
    packets survive a cluster re-form — the sum of pending packets across
    surviving members immediately after the re-form equals the sum just
    before.  A re-form reshapes routing state only; it must never silently
    create or destroy buffered data."""
    mon = _m(monitor)
    if not mon.enabled:
        return 0
    if pending_after == pending_before:
        return 0
    mon.record(
        "dynamic.reform-conservation",
        f"re-form changed queued application packets from {pending_before} "
        f"to {pending_after}",
        sim_time=sim_time,
        hint=hint,
    )
    return 1


def check_handoff_conservation(
    pending_before: int,
    pending_after: int,
    moved: int = 0,
    monitor: InvariantMonitor | None = None,
    sim_time: float | None = None,
    hint: str = "",
) -> int:
    """Cross-cluster handoff conservation (DESIGN.md §13): queued
    application packets survive a field-level handoff batch — the sum of
    pending packets across every live cluster immediately after the batch
    commits equals the sum just before.  A handoff transplants each moved
    sensor's queue into its new cluster (re-stamped origins, same packets);
    it must never strand, duplicate, or silently drop buffered data, no
    matter how many sensors *moved* or which heads died mid-transfer."""
    mon = _m(monitor)
    if not mon.enabled:
        return 0
    if pending_after == pending_before:
        return 0
    mon.record(
        "dynamic.handoff-conservation",
        f"handoff batch ({moved} sensors moved) changed queued application "
        f"packets from {pending_before} to {pending_after}; transplants must "
        "conserve buffered data exactly",
        sim_time=sim_time,
        hint=hint,
    )
    return 1


def check_single_membership(
    rosters: dict[int, Iterable[int]],
    monitor: InvariantMonitor | None = None,
    sim_time: float | None = None,
    hint: str = "",
) -> int:
    """No-dual-membership invariant (DESIGN.md §13): across the live
    cluster heads of one field, every global sensor id belongs to at most
    one roster.  *rosters* maps head id -> the global sensor ids its PHY
    currently claims (``index_map`` without the head entry).  A sensor
    claimed twice would be polled on two schedules and double-counted by
    every per-cluster metric — the failure mode a handoff that forgets to
    shrink the source cluster (or races the failover adoption path)
    produces."""
    mon = _m(monitor)
    if not mon.enabled:
        return 0
    owner: dict[int, int] = {}
    found = 0
    for head in sorted(rosters):
        for sensor in rosters[head]:
            sensor = int(sensor)
            if sensor in owner and owner[sensor] != head:
                found += 1
                mon.record(
                    "dynamic.no-dual-membership",
                    f"sensor {sensor} is claimed by live heads "
                    f"{owner[sensor]} and {head} simultaneously",
                    sim_time=sim_time,
                    nodes=(sensor,),
                    hint=hint,
                )
            else:
                owner[sensor] = head
    return found


def check_delivered_stream(
    packets: Sequence,
    generated: int,
    monitor: InvariantMonitor | None = None,
    sim_time: float | None = None,
    hint: str = "",
) -> int:
    """End-to-end conservation at the heads, checked at the end of a run.

    *packets* is every application packet the heads accepted (objects with
    ``seq`` and ``origin``).  The stream must be duplicate-free — one packet
    can physically reach a head at most once — and can hold no more packets
    than the sensors *generated*.  Duplicates are found by ``seq``, which
    is unique in the process; ``origin`` is a local id that a handoff or an
    adoption re-stamps.
    """
    mon = _m(monitor)
    if not mon.enabled:
        return 0
    found = 0
    seen: set[int] = set()
    dupes: set[int] = set()
    origins: set[int] = set()
    for packet in packets:
        if packet.seq in seen:
            dupes.add(packet.seq)
            origins.add(packet.origin)
        seen.add(packet.seq)
    if dupes:
        found += 1
        mon.record(
            "mac.delivery-duplicate",
            f"{len(dupes)} application packets were delivered more than once: "
            f"seq {sorted(dupes)[:8]}",
            sim_time=sim_time,
            nodes=sorted(origins),
            hint=hint,
        )
    if len(packets) > generated:
        found += 1
        mon.record(
            "mac.delivery-conservation",
            f"heads collected {len(packets)} packets but sensors only "
            f"generated {generated}",
            sim_time=sim_time,
            hint=hint,
        )
    return found

"""Online re-clustering: when and how a head re-forms its cluster (§11).

The paper computes cluster membership and routing once, at forming time
(Sec. V-A/V-B), and assumes the graph never changes.  Under churn and
mobility that plan goes *stale*: joiners sit unserved, movers drag their
links away from the routes planned over them, and repeated repair fallbacks
signal that the static structure no longer matches the field.  Related work
(quantization-based two-tier deployment, optimal-cluster-count analysis)
treats membership as a quantity to re-optimize online; this module supplies
the decision side of that loop for the polling MAC:

* :class:`StalenessTrigger` — the declarative thresholds (membership delta,
  repair fallbacks, load overload, optional fixed period);
* :class:`StalenessTracker` — the per-head counters the MAC feeds between
  re-forms, with :meth:`StalenessTracker.due` deciding at each duty-cycle
  boundary whether a re-form fires and why;
* :func:`discovered_cluster` — fresh connectivity discovery from the live
  medium (Sec. V-B against *current* positions);
* :func:`reform_cluster` — the actual pass: re-discover, then migrate
  demand incrementally through :func:`~repro.routing.repair.repair_routing`
  (never a cold re-solve of a hand-built topology), carrying exclusions
  (blacklist, departures, pre-join absentees) across the re-form.

Everything here is pure computation over snapshots — the MAC decides when
to call it (duty-cycle boundaries only) and owns the state handoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..obs import profile_span as _profile_span
from .cluster import Cluster

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from ..routing.repair import RepairResult

__all__ = [
    "StalenessTrigger",
    "StalenessTracker",
    "ReformResult",
    "discovered_cluster",
    "reform_cluster",
]


@dataclass(frozen=True)
class StalenessTrigger:
    """Thresholds deciding when a cluster's plan is too stale to keep.

    Any satisfied condition fires a re-form at the next duty-cycle boundary:

    * ``membership_delta`` — pending joins + announced leaves since the last
      re-form (new nodes deserve service; departures free capacity);
      ``0`` disables;
    * ``repair_fallbacks`` — boundary route repairs since the last re-form
      (each repair is a local patch; enough of them mean the global plan is
      wrong); ``0`` disables;
    * ``overload_factor`` — max relay load vs. the mean loaded relay
      (``0`` disables): sustained imbalance says the min-max solution was
      computed over a graph that no longer exists;
    * ``period_cycles`` — unconditional re-form every so many cycles (the
      "periodic" policy; ``0`` disables).
    """

    membership_delta: int = 1
    repair_fallbacks: int = 3
    overload_factor: float = 0.0
    period_cycles: int = 0

    def __post_init__(self) -> None:
        if self.membership_delta < 0:
            raise ValueError(
                f"membership_delta must be >= 0, got {self.membership_delta}"
            )
        if self.repair_fallbacks < 0:
            raise ValueError(
                f"repair_fallbacks must be >= 0, got {self.repair_fallbacks}"
            )
        if self.overload_factor < 0:
            raise ValueError(
                f"overload_factor must be >= 0, got {self.overload_factor}"
            )
        if self.period_cycles < 0:
            raise ValueError(
                f"period_cycles must be >= 0, got {self.period_cycles}"
            )


@dataclass
class StalenessTracker:
    """Counters one head feeds between re-forms; ``due()`` is the decision.

    The MAC calls ``note_*`` as events arrive and ``due(...)`` once per
    duty-cycle boundary; a fired re-form calls ``reset()``.  Plain counters,
    no RNG, no simulator access — adding a tracker to a run perturbs
    nothing.
    """

    trigger: StalenessTrigger = field(default_factory=StalenessTrigger)
    joins_pending: int = 0
    leaves_pending: int = 0
    repairs_pending: int = 0
    cycles_since_reform: int = 0

    def note_join(self, node: int) -> None:
        self.joins_pending += 1

    def note_leave(self, node: int) -> None:
        self.leaves_pending += 1

    def note_repair(self) -> None:
        self.repairs_pending += 1

    def note_cycle(self) -> None:
        self.cycles_since_reform += 1

    def due(self, loads: np.ndarray | None = None) -> str | None:
        """Why a re-form should fire now, or ``None`` to keep the plan.

        *loads* is the current routing solution's per-relay load vector
        (only consulted when the overload condition is armed).
        """
        t = self.trigger
        if (
            t.membership_delta > 0
            and self.joins_pending + self.leaves_pending >= t.membership_delta
        ):
            return "membership"
        if t.repair_fallbacks > 0 and self.repairs_pending >= t.repair_fallbacks:
            return "repairs"
        if t.overload_factor > 0 and loads is not None:
            loads = np.asarray(loads, dtype=float)
            loaded = loads[loads > 0]
            if loaded.size and float(loaded.max()) >= t.overload_factor * float(
                loaded.mean()
            ):
                return "overload"
        if t.period_cycles > 0 and self.cycles_since_reform >= t.period_cycles:
            return "periodic"
        return None

    def reset(self) -> None:
        self.joins_pending = 0
        self.leaves_pending = 0
        self.repairs_pending = 0
        self.cycles_since_reform = 0


def discovered_cluster(phy) -> Cluster:
    """Re-discover one cluster's topology from the live medium (Sec. V-B).

    Connectivity comes from the medium's *current* receive powers (so moved
    nodes contribute their moved links) and positions are copied back from
    the medium — the head learns where its members are now, not where the
    deployment put them.  Packet demand and residual energy are carried over
    from the PHY's current cluster (discovery changes the graph, not the
    workload).  Works for both the single-cluster layout and shared-medium
    operation through ``index_map``.
    """
    medium = phy.medium
    n = phy.n_sensors
    hearing = medium.hearing_matrix()
    if phy.index_map is not None:
        idx = np.asarray(phy.index_map)
        hearing = hearing[np.ix_(idx, idx)]
        positions = medium.positions[idx[:n]].copy()
        head_position = medium.positions[idx[n]].copy()
    else:
        positions = medium.positions[:n].copy()
        head_position = medium.positions[n].copy()
    return Cluster(
        hears=hearing[:n, :n],
        head_hears=hearing[n, :n],
        packets=phy.cluster.packets.copy(),
        energy=phy.cluster.energy.copy(),
        positions=positions,
        head_position=head_position,
    )


@dataclass
class ReformResult:
    """Outcome of one re-form pass."""

    cluster: Cluster  # freshly discovered topology (nothing pruned yet)
    repair: "RepairResult"  # incremental demand migration over it
    admitted: frozenset[int]  # joiners newly planned into routing
    excluded: frozenset[int]  # blacklist + departures + pre-join absentees

    @property
    def routing(self):
        return self.repair.solution


def reform_cluster(
    phy,
    excluded: set[int],
    admitted: set[int] = frozenset(),
) -> ReformResult:
    """One re-form: re-discover connectivity, migrate demand incrementally.

    *excluded* nodes (the head's blacklist, announced departures, sensors
    not yet joined) are pruned exactly as a route repair prunes the dead —
    the migration *is* a :func:`~repro.routing.repair.repair_routing` call
    over the re-discovered graph, so partial coverage, dropped-demand
    accounting and the warm-start solve all behave identically to the
    failure path.  *admitted* is bookkeeping for the caller (joiners being
    planned for the first time); admission needs no special mechanics
    because discovery already sees their radios.
    """
    # Imported here, not at module scope: repro.routing.repair itself imports
    # repro.topology, and this module is pulled in by the package __init__.
    from ..routing.repair import repair_routing

    with _profile_span(
        "topology.recluster",
        histogram="recluster.reform_wall_s",
        excluded=len(excluded),
        admitted=len(admitted),
    ):
        fresh = discovered_cluster(phy)
        base = fresh.with_packets(np.maximum(fresh.packets, 1))
        repair = repair_routing(base, set(excluded))
        return ReformResult(
            cluster=fresh,
            repair=repair,
            admitted=frozenset(admitted),
            excluded=frozenset(excluded),
        )

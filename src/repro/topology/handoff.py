"""Field-level re-forming: cross-cluster handoff planning (DESIGN.md §13).

PR 6 made the field dynamic but deliberately froze multi-cluster membership:
``final_assignment_staleness`` measures how badly the deploy-time Voronoi
forming decays under mobility, and nothing acts on it.  This module is the
pure decision side of the loop that closes it — a field-scope analogue of
:mod:`repro.topology.recluster`, consumed by the coordinator in
:mod:`repro.net.multicluster_sim`:

* :class:`FieldStalenessTracker` — the :class:`~repro.topology.recluster.
  StalenessTrigger` machinery reused at field scope: the per-boundary
  "membership delta" is the number of sensors whose nearest live head no
  longer matches the head that serves them, and the periodic condition
  works unchanged;
* :func:`quantization_head_step` — one bounded Lloyd/quantization iteration
  (Karimi-Bidhendi et al., two-tier quantization; Tandon, optimal cluster
  count): each live head steps toward the centroid of its *current* Voronoi
  cell over live sensor positions, no further than a physical displacement
  budget;
* :func:`plan_field_reform` — re-run Voronoi forming over live positions
  (with the quantization-guided head placement folded in) and distill the
  difference into a **bounded** set of :class:`HandoffMove`\\ s, largest
  geometric gain first; moves beyond the budget are returned as
  ``deferred`` so the next boundary can pick them up.

Everything here is pure computation over position snapshots — no simulator
access, no RNG, no radio state.  The coordinator owns execution (radio
retune, queue transplant, CBR re-target) and crash safety.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forming import voronoi_assignment
from .recluster import StalenessTracker, StalenessTrigger

__all__ = [
    "HandoffMove",
    "FieldReformPlan",
    "FieldStalenessTracker",
    "quantization_head_step",
    "plan_field_reform",
    "serving_staleness",
]


@dataclass(frozen=True)
class HandoffMove:
    """One planned cross-cluster sensor handoff (global ids throughout)."""

    sensor: int
    src: int  # head currently serving the sensor
    dst: int  # nearest live head at plan time
    gain_m: float  # distance improvement the move buys (src_d - dst_d)


@dataclass(frozen=True)
class FieldReformPlan:
    """Outcome of one field-level planning pass."""

    reason: str  # why the trigger fired ("membership" | "periodic" | ...)
    staleness: float  # serving staleness at plan time (fraction misassigned)
    moves: tuple[HandoffMove, ...]  # the bounded batch to execute
    deferred: tuple[HandoffMove, ...]  # misassignments beyond the budget
    head_positions: np.ndarray  # (k, 2) placements after the Lloyd step

    @property
    def n_moves(self) -> int:
        return len(self.moves)


@dataclass
class FieldStalenessTracker:
    """The :class:`StalenessTrigger` machinery reused at field scope.

    The per-cluster tracker counts joins/leaves between re-forms; at field
    scope the analogous quantity is the number of sensors whose nearest
    live head differs from the head serving them — a "pending membership
    change" the deploy-time forming never applied.  ``observe_boundary``
    loads that count into the tracker and asks :meth:`StalenessTracker.due`
    for a verdict, so the thresholds (``membership_delta``,
    ``period_cycles``) keep their exact per-cluster semantics; the repair/
    overload conditions have no field-scope feeder and simply never fire
    unless the caller notes them explicitly.
    """

    trigger: StalenessTrigger = field(
        default_factory=lambda: StalenessTrigger(membership_delta=3)
    )
    tracker: StalenessTracker = field(init=False)

    def __post_init__(self) -> None:
        self.tracker = StalenessTracker(trigger=self.trigger)

    def observe_boundary(self, misassigned: int) -> str | None:
        """Feed one duty-cycle boundary; returns the firing reason or None.

        *misassigned* replaces (not accumulates into) the pending membership
        delta: the field either is or is not out of shape right now, and a
        sensor that drifts out and back between boundaries owes no re-form.
        """
        self.tracker.note_cycle()
        self.tracker.joins_pending = int(misassigned)
        self.tracker.leaves_pending = 0
        return self.tracker.due()

    def fired(self) -> None:
        """A re-form executed: reset the counters."""
        self.tracker.reset()


def serving_staleness(
    sensor_positions: np.ndarray,
    head_positions: np.ndarray,
    serving: np.ndarray,
    live_heads: list[int] | None = None,
) -> float:
    """Fraction of sensors whose nearest *live* head differs from the head
    currently serving them.

    The field-scope twin of :func:`~repro.topology.recluster.
    assignment_staleness`, except measured against the *current serving*
    assignment (which handoffs update) rather than the deploy-time one, and
    restricted to surviving heads — a sensor cannot be less stale by
    preferring a crashed head.
    """
    serving = np.asarray(serving)
    if serving.size == 0:
        return 0.0
    heads = np.asarray(head_positions, dtype=np.float64)
    if live_heads is None:
        live_heads = list(range(heads.shape[0]))
    if not live_heads:
        return 0.0
    live = np.asarray(sorted(live_heads), dtype=np.int64)
    fresh = live[voronoi_assignment(sensor_positions, heads[live])]
    return float(np.mean(fresh != serving))


def quantization_head_step(
    sensor_positions: np.ndarray,
    head_positions: np.ndarray,
    live_heads: list[int],
    max_step_m: float,
) -> np.ndarray:
    """One bounded Lloyd iteration over live geometry (Karimi-Bidhendi).

    Each live head moves toward the centroid of its current Voronoi cell
    (computed over live heads only), clipped to ``max_step_m`` of physical
    displacement — heads are real relocatable nodes, not free codebook
    points, so one boundary buys one bounded step of the quantization
    descent rather than the converged placement.  Dead heads and heads with
    empty cells stay put.  Returns a new ``(k, 2)`` array; the input is
    never mutated.
    """
    heads = np.asarray(head_positions, dtype=np.float64).copy()
    if max_step_m <= 0.0 or not live_heads:
        return heads
    sensors = np.asarray(sensor_positions, dtype=np.float64)
    live = sorted(live_heads)
    cells = voronoi_assignment(sensors, heads[np.asarray(live, dtype=np.int64)])
    for slot, h in enumerate(live):
        members = sensors[cells == slot]
        if members.shape[0] == 0:
            continue
        delta = members.mean(axis=0) - heads[h]
        norm = float(np.hypot(delta[0], delta[1]))
        if norm > max_step_m:
            delta = delta * (max_step_m / norm)
        heads[h] = heads[h] + delta
    return heads


def plan_field_reform(
    sensor_positions: np.ndarray,
    head_positions: np.ndarray,
    serving: np.ndarray,
    reason: str,
    live_heads: list[int],
    max_moves: int = 8,
    head_step_m: float = 0.0,
    frozen_sensors: set[int] | None = None,
) -> FieldReformPlan:
    """Re-run Voronoi forming over live positions; emit a bounded move set.

    *serving* maps each global sensor to the head currently serving it.
    *frozen_sensors* never move (the coordinator freezes blacklisted /
    departed / absent sensors — a dead radio cannot retune — and sensors of
    busy or dead source heads).  ``head_step_m > 0`` folds in one
    quantization placement step before the assignment, so placement and
    partition descend together as in the two-tier quantization scheme.

    Moves are ranked by geometric gain (current serving distance minus
    distance to the new head), and only the top ``max_moves`` make the
    batch — a bounded handoff burst keeps the boundary's control work and
    roster announcements small.  The remainder is returned as ``deferred``;
    the field stays misassigned, the tracker sees that again next boundary,
    and the backlog drains a batch per cycle.
    """
    sensors = np.asarray(sensor_positions, dtype=np.float64)
    serving = np.asarray(serving, dtype=np.int64)
    frozen = frozen_sensors or set()
    live = sorted(live_heads)
    heads = quantization_head_step(sensors, head_positions, live, head_step_m)
    staleness = serving_staleness(sensors, heads, serving, live)
    if not live:
        return FieldReformPlan(
            reason=reason,
            staleness=staleness,
            moves=(),
            deferred=(),
            head_positions=heads,
        )
    live_arr = np.asarray(live, dtype=np.int64)
    fresh = live_arr[voronoi_assignment(sensors, heads[live_arr])]
    candidates: list[HandoffMove] = []
    for g in range(sensors.shape[0]):
        src, dst = int(serving[g]), int(fresh[g])
        if src == dst or g in frozen:
            continue
        if src not in live:
            # Orphans of a dead head belong to the failover adoption path
            # (HeadFailoverCoordinator), not to a live-to-live handoff —
            # two mechanisms moving the same sensor is how dual membership
            # happens.
            continue
        src_d = float(np.hypot(*(sensors[g] - heads[src])))
        dst_d = float(np.hypot(*(sensors[g] - heads[dst])))
        candidates.append(
            HandoffMove(sensor=g, src=src, dst=dst, gain_m=src_d - dst_d)
        )
    # Largest gain first; sensor id breaks ties so the plan is deterministic.
    candidates.sort(key=lambda m: (-m.gain_m, m.sensor))
    bound = max(0, int(max_moves))
    return FieldReformPlan(
        reason=reason,
        staleness=staleness,
        moves=tuple(candidates[:bound]),
        deferred=tuple(candidates[bound:]),
        head_positions=heads,
    )

"""Proactive k-disjoint backup relay paths (survivability layer).

The min-max-load routing of Sec. III-A commits every sensor to relay paths
for a whole duty cycle; when a relay dies mid-cycle the online algorithm can
only burn retries until the duty-cycle boundary, where ``routing/repair.py``
re-solves the flow from scratch.  This module precomputes, for every sensor,
up to *k* **backup** relaying paths that are

* node-disjoint (in their interior relays) from *all* of the sensor's
  primary flow paths, and
* mutually node-disjoint among themselves,

so that the death of any single interior relay — primary or backup — leaves
at least one precomputed alternative intact.  The MAC's in-cycle failover
(:mod:`repro.core.online`) re-issues pending requests along these paths in
the very next slot instead of waiting for the boundary repair.

The computation runs on the min-max solver's node-split network
(:func:`~repro.routing.minmax._build_network`) with zero supplies and
**unit** through-capacities, so max-flow value = maximum number of
interior-node-disjoint paths (Menger's theorem), and reads the paths off
the flow with the solver's unit-path walker.  One network is built per
cluster and reused across sensors via ``set_capacity`` + ``reset_flow`` +
Dinic, exactly like the δ/λ probe engine: construction, not augmentation,
dominates, so paying it once per cluster matters.

Disjointness is a *checked* property: :func:`repro.validate.check_backup_routes`
audits every bundle against the primaries (DESIGN.md §9) and is invoked on
each computation when the invariant monitor is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import validate as _validate
from ..obs import profile_span as _profile_span
from .minmax import FlowSolution, _build_network, _unit_walker
from .paths import RelayingPath

__all__ = ["BackupRoutes", "compute_backup_routes"]


@dataclass(frozen=True)
class BackupRoutes:
    """Precomputed backup relaying paths, up to *k* per sensor.

    ``backups[i]`` lists sensor *i*'s backup paths in preference order
    (shortest first).  ``primary_interiors[i]`` is the set of interior
    relays across all of *i*'s primary flow paths — the nodes every backup
    of *i* is guaranteed to avoid.  Sensors whose topology admits no
    disjoint alternative simply have an empty (or missing) bundle: failover
    then falls back to the boundary repair, never to an unchecked path.
    """

    k: int
    backups: dict[int, tuple[RelayingPath, ...]] = field(default_factory=dict)
    primary_interiors: dict[int, frozenset[int]] = field(default_factory=dict)

    def paths_for(self, sensor: int) -> tuple[RelayingPath, ...]:
        return self.backups.get(sensor, ())

    def select(self, sensor: int, avoid: set[int]) -> RelayingPath | None:
        """The first backup of *sensor* whose interior avoids *avoid*."""
        for path in self.backups.get(sensor, ()):
            if not (set(path[1:-1]) & avoid):
                return path
        return None


def compute_backup_routes(solution: FlowSolution, k: int) -> BackupRoutes:
    """Up to *k* interior-disjoint backup paths per routed sensor.

    For each sensor *i* with a primary flow path, the interior relays of
    *all* of *i*'s primaries are removed from the unit-capacity node-split
    network (their through-arcs zeroed), *i*'s own arcs are opened to *k*,
    and a Dinic max-flow (``limit=k``) yields the maximum family of
    mutually interior-disjoint alternatives — possibly fewer than *k*,
    possibly none.  ``k=0`` is the exact no-op: an empty route set and no
    network construction at all.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0 or not solution.flow_paths:
        return BackupRoutes(k=k)
    with _profile_span(
        "routing.backups",
        histogram="routing.backups_wall_s",
        k=k,
        sensors=len(solution.flow_paths),
    ):
        return _compute_backup_routes(solution, k)


def _compute_backup_routes(solution: FlowSolution, k: int) -> BackupRoutes:
    cluster = solution.cluster
    n = cluster.n_sensors
    # Source arcs start closed; the per-sensor sweep opens one at a time.
    net, source_edges, through_edges = _build_network(
        cluster.with_packets(np.zeros(n, dtype=np.int64)),
        np.ones(n, dtype=np.int64),
    )
    backups: dict[int, tuple[RelayingPath, ...]] = {}
    primary_interiors: dict[int, frozenset[int]] = {}
    for sensor in sorted(solution.flow_paths):
        interiors = frozenset(
            node
            for path, _ in solution.flow_paths[sensor]
            for node in path[1:-1]
        )
        primary_interiors[sensor] = interiors
        # Open this sensor's source and widen its own through-arc to k; a
        # sensor lies on every one of its own paths, so its node capacity
        # must not constrain the family.  Blocked interiors get capacity 0.
        net.set_capacity(source_edges[sensor], k)
        net.set_capacity(through_edges[sensor], k)
        for node in interiors:
            net.set_capacity(through_edges[node], 0)
        net.reset_flow()
        sent = net.max_flow(0, 1, method="dinic", limit=k)
        walk = _unit_walker(net)
        found = [walk(sensor) for _ in range(sent)]
        # A path with an empty interior (direct head link) can absorb
        # several flow units, and nothing stops the solver from re-deriving
        # a primary path verbatim — neither duplicate is a real alternative.
        primaries = {path for path, _ in solution.flow_paths[sensor]}
        unique: list[RelayingPath] = []
        for path in found:
            if path not in primaries and path not in unique:
                unique.append(path)
        # Preference order: fewest hops first, then lexicographic — the
        # failover tries them in order, so cheap detours come first.
        unique.sort(key=lambda p: (len(p), p))
        backups[sensor] = tuple(unique)
        # Restore the shared network for the next sensor.
        net.set_capacity(source_edges[sensor], 0)
        net.set_capacity(through_edges[sensor], 1)
        for node in interiors:
            net.set_capacity(through_edges[node], 1)
    routes = BackupRoutes(
        k=k, backups=backups, primary_interiors=primary_interiors
    )
    if _validate.MONITOR.enabled:
        _validate.check_backup_routes(
            cluster,
            routes,
            hint=f"compute_backup_routes(n={cluster.n_sensors}, k={k})",
        )
    return routes

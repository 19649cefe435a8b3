"""Cluster forming for the two-layer network (paper Sec. V-A).

The paper's suggested scheme: cluster heads compute the Voronoi diagram of
head positions and every sensor joins the cluster of its Voronoi cell (i.e.
its nearest head).  After forming, each head discovers its members hop by
hop: first the sensors it hears directly, then sensors those can hear, and
so on — each newly discovered sensor remembers its discoverer as a temporary
relaying parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import HEAD, Cluster
from .geometry import as_positions, within_range_adjacency

__all__ = [
    "voronoi_assignment",
    "DiscoveryResult",
    "bfs_discover",
    "form_clusters",
    "FormedNetwork",
]


def voronoi_assignment(sensor_positions, head_positions) -> np.ndarray:
    """Assign each sensor to its nearest head (Voronoi cells).

    Returns an ``(n,)`` int array of head indices.  Ties break toward the
    lower head index (argmin semantics), which keeps assignment deterministic.
    """
    sensors = as_positions(sensor_positions)
    heads = as_positions(head_positions)
    if heads.shape[0] == 0:
        raise ValueError("need at least one head")
    diff = sensors[:, np.newaxis, :] - heads[np.newaxis, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.argmin(d2, axis=1).astype(np.int64)


@dataclass(frozen=True)
class DiscoveryResult:
    """Outcome of hop-by-hop membership discovery inside one cluster.

    ``parent[i]`` is the sensor that first discovered sensor *i* (or
    :data:`HEAD` for sensors the head discovered directly, or ``None`` for
    sensors never reached).  ``order`` lists sensors in discovery order;
    ``hops[i]`` is the discovery round (1 = heard by the head).
    """

    parent: list[int | None]
    order: list[int]
    hops: np.ndarray

    @property
    def discovered(self) -> list[int]:
        return list(self.order)

    def temporary_path(self, sensor: int) -> tuple[int, ...]:
        """The provisional relaying path set up during discovery."""
        if self.parent[sensor] is None:
            raise ValueError(f"sensor {sensor} was never discovered")
        path: list[int] = [sensor]
        node = sensor
        while node != HEAD:
            nxt = self.parent[node]
            assert nxt is not None
            path.append(nxt)
            node = nxt
        return tuple(path)


def bfs_discover(cluster: Cluster) -> DiscoveryResult:
    """Hop-by-hop discovery (Sec. V-A): head finds level-1, they find level-2...

    Mirrors the paper's description: "each sensor can remember the first
    sensor that discovered it as its parent, who will be in charge of
    forwarding its packets" — a temporary tree used until the flow-based
    routing replaces it.
    """
    n = cluster.n_sensors
    parent: list[int | None] = [None] * n
    hops = np.full(n, np.inf)
    order: list[int] = []
    frontier: list[int] = []
    for s in cluster.first_level_sensors():
        parent[s] = HEAD
        hops[s] = 1
        order.append(s)
        frontier.append(s)
    level = 1
    while frontier:
        level += 1
        next_frontier: list[int] = []
        for discoverer in frontier:
            # Sensors that can hear `discoverer`'s probe *and* that it can
            # hear back (we require a usable bidirectional link for relaying).
            for cand in range(n):
                if parent[cand] is not None:
                    continue
                if cluster.hears[cand, discoverer] and cluster.hears[discoverer, cand]:
                    parent[cand] = discoverer
                    hops[cand] = level
                    order.append(cand)
                    next_frontier.append(cand)
        frontier = next_frontier
    return DiscoveryResult(parent=parent, order=order, hops=hops)


@dataclass(frozen=True)
class FormedNetwork:
    """A multi-cluster network produced by :func:`form_clusters`.

    ``clusters[h]`` is the :class:`Cluster` of head *h*, whose sensor indices
    are local; ``members[h]`` maps local index -> global sensor index.
    """

    head_positions: np.ndarray
    sensor_positions: np.ndarray
    assignment: np.ndarray
    clusters: list[Cluster]
    members: list[np.ndarray]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def form_clusters(
    sensor_positions,
    head_positions,
    comm_range: float,
) -> FormedNetwork:
    """Voronoi-partition sensors among heads and build per-cluster structures.

    Only links between sensors of the *same* cluster are kept inside each
    :class:`Cluster` (in-cluster operation, Sec. II); cross-cluster
    interference is handled separately by :mod:`repro.net.multicluster`.
    """
    sensors = as_positions(sensor_positions)
    heads = as_positions(head_positions)
    assignment = voronoi_assignment(sensors, heads)
    adj = within_range_adjacency(sensors, comm_range)
    clusters: list[Cluster] = []
    members: list[np.ndarray] = []
    for h in range(heads.shape[0]):
        idx = np.flatnonzero(assignment == h)
        members.append(idx)
        sub = adj[np.ix_(idx, idx)]
        if idx.size:
            diff = sensors[idx] - heads[h]
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            head_hears = dist <= comm_range
        else:
            head_hears = np.zeros(0, dtype=bool)
        clusters.append(
            Cluster(
                hears=sub,
                head_hears=head_hears,
                positions=sensors[idx].copy(),
                head_position=heads[h].copy(),
            )
        )
    return FormedNetwork(
        head_positions=heads,
        sensor_positions=sensors,
        assignment=assignment,
        clusters=clusters,
        members=members,
    )

"""The protocol interference model of Gupta & Kumar (paper ref. [17]).

Sensor ``j`` receives from ``i`` iff ``dist(i, j) <= r``; two transmissions
``i->j`` and ``k->l`` are compatible iff the *other* sender is at least
``(1 + delta) * r`` from each receiver.  The paper uses this model only for
analysis and argues it is unsafe for real scheduling (pairwise-only,
disc-shaped) — we provide it as a baseline oracle so ablations can quantify
that criticism against the additive-SINR physical model.
"""

from __future__ import annotations

import numpy as np

from ..topology.cluster import HEAD, Cluster
from .base import Link, PairwiseOracle

__all__ = ["ProtocolModelOracle"]


class ProtocolModelOracle(PairwiseOracle):
    """Disc-based pairwise oracle over a geometric cluster.

    Requires the cluster to carry positions.  The head participates with the
    same receive geometry as sensors (its position is known); its large
    transmit power is irrelevant here because the head never transmits
    during a data slot.
    """

    def __init__(self, cluster: Cluster, delta: float = 0.5, max_group_size: int = 2):
        super().__init__(max_group_size=max_group_size)
        if cluster.positions is None or cluster.head_position is None:
            raise ValueError("protocol model needs a geometric cluster (positions)")
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.delta = float(delta)
        self.range = float(_infer_range(cluster))
        # Row n is the head's position; node id -1 maps to index n.
        self._pos = np.vstack([cluster.positions, cluster.head_position[np.newaxis, :]])
        self._n = cluster.n_sensors

    def _index(self, node: int) -> int:
        return self._n if node == HEAD else node

    def _dist(self, a: int, b: int) -> float:
        pa = self._pos[self._index(a)]
        pb = self._pos[self._index(b)]
        return float(np.hypot(pa[0] - pb[0], pa[1] - pb[1]))

    def _single_ok(self, link: Link) -> bool:
        sender, receiver = link
        if sender == HEAD:
            return True  # head broadcasts cover the cluster
        return self._dist(sender, receiver) <= self.range

    def _pair_compatible(self, a: Link, b: Link) -> bool:
        guard = (1.0 + self.delta) * self.range
        (s1, r1), (s2, r2) = a, b
        return self._dist(s2, r1) > guard and self._dist(s1, r2) > guard


def _infer_range(cluster: Cluster) -> float:
    """Smallest disc radius consistent with the cluster's hearing matrix.

    Geometric clusters built from a :class:`Deployment` have
    ``hears[i, j] == (dist <= comm_range)``; we recover ``comm_range`` as the
    largest hearing distance (or, if no sensor pair hears, the largest
    head-hearing distance).
    """
    assert cluster.positions is not None and cluster.head_position is not None
    dists: list[float] = []
    pos = cluster.positions
    n = cluster.n_sensors
    ii, jj = np.nonzero(cluster.hears)
    if ii.size:
        d = np.sqrt(((pos[ii] - pos[jj]) ** 2).sum(axis=1))
        dists.append(float(d.max()))
    lvl1 = np.flatnonzero(cluster.head_hears)
    if lvl1.size:
        d = np.sqrt(((pos[lvl1] - cluster.head_position) ** 2).sum(axis=1))
        dists.append(float(d.max()))
    if not dists:
        raise ValueError("cluster has no links; cannot infer a radio range")
    # Tiny relative headroom: the farthest link sits exactly at the radius
    # and must not lose the comparison to float rounding.
    return max(dists) * (1.0 + 1e-9)

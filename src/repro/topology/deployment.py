"""Sensor deployments matching the paper's Sec. VI setup.

The evaluation deploys sensors "uniformly within a two-dimensional square"
with "the cluster head placed at the center of the square".  We reproduce
that, plus grid and ring deployments used by tests and ablations, with the
guarantee that the deployed cluster is *connected* (every sensor can reach
the head over some multi-hop path) — disconnected draws are resampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..sim.rng import RngStreams
from .geometry import as_positions, within_range_adjacency

__all__ = [
    "Deployment",
    "uniform_square",
    "grid",
    "line",
    "SIDE_M",
    "SENSOR_RANGE_M",
]

# The paper's Sec. VI deployment, the one declaration the polling, S-MAC and
# field harnesses and the Fig. 7 engines read, so that the compared
# protocols run over the same field: sensors reach 55 m and are scattered
# over a 200 m square, which gives clusters 1-4 hops deep.  (The paper's
# exact figures are garbled in the available text; only the *ratio*
# side/range matters for hop depth.)  The other Sec. VI values are the
# PHY's own defaults: ``radio.channel.BITRATE_BPS``, the 80-byte packet
# (``FrameSizes.data``) and ``EnergyParams()``.
SIDE_M: float = 200.0
SENSOR_RANGE_M: float = 55.0


@dataclass(frozen=True)
class Deployment:
    """A deployed cluster: head position, sensor positions, comm range.

    ``positions`` holds the *sensor* coordinates only; the head sits at
    ``head_position``.  Sensor indices are 0..n-1 everywhere downstream.
    """

    head_position: np.ndarray
    positions: np.ndarray
    comm_range: float
    side: float

    @property
    def n_sensors(self) -> int:
        return int(self.positions.shape[0])

    # The O(n^2) pairwise-distance products are computed once per deployment
    # (cached_property stores into __dict__, which frozen dataclasses allow);
    # the arrays are shared with every caller, so treat them as read-only —
    # Cluster documents the same immutability contract for its hearing state.

    @cached_property
    def _sensor_adjacency(self) -> np.ndarray:
        adj = within_range_adjacency(self.positions, self.comm_range)
        adj.flags.writeable = False
        return adj

    @cached_property
    def _head_reachable(self) -> np.ndarray:
        diff = self.positions - self.head_position
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        reach = dist <= self.comm_range
        reach.flags.writeable = False
        return reach

    def sensor_adjacency(self) -> np.ndarray:
        """Boolean sensor-to-sensor hearing matrix (symmetric, no self-loops).

        Cached; the returned array is read-only.
        """
        return self._sensor_adjacency

    def head_reachable(self) -> np.ndarray:
        """Boolean vector: which sensors the head can *hear directly*.

        The head's own broadcasts reach everyone (its transmission power is
        large, Sec. I); this is the reverse direction, i.e. level-1 sensors.
        Cached; the returned array is read-only.
        """
        return self._head_reachable

    def with_positions(self, positions: np.ndarray) -> "Deployment":
        """A copy of this deployment with different sensor positions.

        Mirrors :meth:`Cluster.with_packets`: the adjacency caches
        (``_sensor_adjacency`` / ``_head_reachable``) have no invalidation
        path — they are computed once per instance — so position changes
        (mobility steps, joiner admission) must go through a fresh instance
        rather than mutate ``positions`` in place and silently serve stale
        adjacency.  The sensor count may change (joins extend it).
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"positions must be an (n, 2) array, got shape {positions.shape}"
            )
        return Deployment(
            head_position=self.head_position.copy(),
            positions=positions.copy(),
            comm_range=self.comm_range,
            side=self.side,
        )

    def is_connected(self) -> bool:
        """Can every sensor reach the head over sensor-to-sensor hops?"""
        n = self.n_sensors
        if n == 0:
            return True
        adj = self.sensor_adjacency()
        reached = self.head_reachable().copy()
        if not reached.any():
            return False
        frontier = reached.copy()
        while frontier.any():
            # All sensors that can hear any frontier sensor join the reached set.
            newly = adj[frontier].any(axis=0) & ~reached
            reached |= newly
            frontier = newly
        return bool(reached.all())


def uniform_square(
    n_sensors: int,
    seed: int = 0,
    side: float = SIDE_M,
    comm_range: float = SENSOR_RANGE_M,
    max_attempts: int = 200,
) -> Deployment:
    """Uniform random deployment in a ``side x side`` square, head at center.

    Resamples until the cluster is connected (all sensors can reach the head
    multi-hop); raises after *max_attempts* failures so parameter mistakes
    (range too small for the density) fail loudly instead of looping forever.
    """
    if n_sensors < 1:
        raise ValueError(f"need at least one sensor, got {n_sensors}")
    rng = RngStreams(seed).get("deployment")
    head = np.array([side / 2.0, side / 2.0])
    for _ in range(max_attempts):
        pts = rng.uniform(0.0, side, size=(n_sensors, 2))
        dep = Deployment(head_position=head, positions=pts, comm_range=comm_range, side=side)
        if dep.is_connected():
            return dep
    raise RuntimeError(
        f"could not draw a connected deployment of {n_sensors} sensors in "
        f"{side}x{side} m with range {comm_range} m after {max_attempts} attempts"
    )


def grid(
    rows: int,
    cols: int,
    spacing: float,
    comm_range: float | None = None,
) -> Deployment:
    """Regular grid deployment, head at the grid centroid.

    Default range is 1.5x the spacing, connecting 4- and diagonal neighbours.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    xs, ys = np.meshgrid(np.arange(cols) * spacing, np.arange(rows) * spacing)
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
    head = pts.mean(axis=0)
    rng_m = comm_range if comm_range is not None else spacing * 1.5
    side = max(rows, cols) * spacing
    return Deployment(head_position=head, positions=pts, comm_range=rng_m, side=side)


def line(
    n_sensors: int,
    spacing: float,
    comm_range: float | None = None,
) -> Deployment:
    """A chain: head at the origin, sensors at spacing, 2*spacing, ...

    The deepest-possible topology for a given sensor count (hop count i for
    sensor i), generalizing the paper's Fig. 2 example; the default range
    (1.05x spacing) connects consecutive sensors only.
    """
    if n_sensors < 1:
        raise ValueError(f"need at least one sensor, got {n_sensors}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    xs = spacing * np.arange(1, n_sensors + 1, dtype=np.float64)
    pts = np.column_stack([xs, np.zeros(n_sensors)])
    head = np.array([0.0, 0.0])
    rng_m = float(comm_range) if comm_range is not None else spacing * 1.05
    return Deployment(
        head_position=head,
        positions=as_positions(pts),
        comm_range=rng_m,
        side=spacing * (n_sensors + 1),
    )

"""Inter-cluster interference removal (paper Sec. V-G).

Two mechanisms, both implemented:

* **Token rotation** — only the cluster head holding the token may run its
  duty cycle; simple, correct, and fine when clusters are few and duty
  cycles short relative to the cycle.  :class:`TokenSchedule` produces the
  per-cluster transmission windows and utilization figures.
* **Channel coloring** — clusters whose radios can hear each other get
  different radio channels via the min-degree-peeling coloring
  (:mod:`repro.net.coloring`); all clusters then poll concurrently.
  :func:`assign_channels` returns the channel map and
  :func:`concurrency_gain` quantifies the speedup over token rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..radio.channel import RadioMedium
from .coloring import is_proper_coloring, six_color_planar

__all__ = ["TokenSchedule", "assign_channels", "concurrency_gain"]


@dataclass
class TokenSchedule:
    """Round-robin token among cluster heads.

    ``windows[k]`` = (start, end) of cluster *k*'s transmission window in
    each rotation period; the period equals the sum of per-cluster duty
    durations (plus a fixed token handoff cost per hop).
    """

    duty_durations: list[float]
    handoff_cost: float = 0.0

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.duty_durations):
            raise ValueError("duty durations must be non-negative")
        if self.handoff_cost < 0:
            raise ValueError("handoff cost must be non-negative")

    @property
    def n_clusters(self) -> int:
        return len(self.duty_durations)

    @property
    def period(self) -> float:
        return sum(self.duty_durations) + self.handoff_cost * self.n_clusters

    def windows(self) -> list[tuple[float, float]]:
        out = []
        t = 0.0
        for d in self.duty_durations:
            out.append((t, t + d))
            t += d + self.handoff_cost
        return out

    def holder_at(self, time: float) -> int | None:
        """Which cluster may transmit at *time* (None during handoffs)."""
        t = time % self.period if self.period > 0 else 0.0
        for k, (start, end) in enumerate(self.windows()):
            if start <= t < end:
                return k
        return None

    def utilization(self) -> float:
        """Fraction of the period someone is transmitting."""
        if self.period <= 0:
            return 0.0
        return sum(self.duty_durations) / self.period


def assign_channels(
    medium: RadioMedium, rosters: Sequence[Sequence[int]]
) -> np.ndarray:
    """Color the cluster hearing graph; returns a channel per cluster.

    ``rosters[h]`` lists cluster *h*'s medium indices, head last.  Clusters
    *a* and *b* are adjacent when either one's radios are in carrier-sense
    reach of the other's (:meth:`RadioMedium.in_cs_reach`, rule 5 of the
    batch slot engine's per-slot check).  A hearing graph need not be
    planar, so the channel count is whatever the graph needs, not <= 6.
    """
    k = len(rosters)
    adj = np.zeros((k, k), dtype=bool)
    for a in range(k):
        for b in range(a + 1, k):
            ra, rb = rosters[a], rosters[b]
            heard = medium.in_cs_reach(ra, rb) or medium.in_cs_reach(rb, ra)
            adj[a, b] = adj[b, a] = heard
    colors = six_color_planar(adj)
    if not is_proper_coloring(adj, colors):  # pragma: no cover - invariant
        raise RuntimeError("coloring is improper — internal error")
    return colors


def concurrency_gain(duty_durations: Sequence[float]) -> float:
    """Token-rotation period / longest duty.

    With channels assigned, every cluster polls at once, so the colored
    schedule lasts as long as the slowest cluster where token rotation
    lasts the sum of all duties: the paper's argument for coloring over
    token rotation.  The gain holds only while no co-channel clusters hear
    each other; :func:`assign_channels` ensures that for the geometry it
    colors.
    """
    token = TokenSchedule(duty_durations=list(duty_durations))
    colored_period = max(duty_durations, default=0.0)
    if colored_period <= 0:
        return 1.0
    return token.period / colored_period

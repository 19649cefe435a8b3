"""Additive-SINR ("physical") interference model.

This is the model the paper adopts for realizing arbitrary interference
patterns (Sec. III-C.1): reception powers ``P_r(s)`` are **arbitrary
per-pair numbers** (no power-law assumption — ref. [1] showed long-range
power can be anything), and a group of transmissions is compatible iff every
receiver's SINR clears a threshold *beta* with the *accumulated* interference
of all other senders:

    P_r(s) / (noise + sum_{s' != s} P_r(s'))  >=  beta

Unlike the protocol model this is a genuine *group* property — Fig. 3's
example (three pairwise-compatible transmissions whose sum breaks one
receiver) is representable and tested.  The simulator's matrix is the radio
medium's own ``rx_power`` (:func:`repro.mac.base.phy_truth_oracle`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..topology.cluster import HEAD
from .base import CompatibilityOracle, Link

__all__ = ["PhysicalModelOracle"]


class PhysicalModelOracle(CompatibilityOracle):
    """SINR oracle over an explicit received-power matrix.

    Parameters
    ----------
    power:
        ``(n+1, n+1)`` floats; ``power[r, s]`` is the power receiver *r*
        sees when *s* transmits (watts).  Index ``n`` is the cluster head
        (node id :data:`HEAD`).  Entries may be zero (inaudible).
    beta:
        SINR capture threshold (linear, not dB).
    noise:
        receiver noise floor in watts.
    """

    def __init__(
        self,
        power: np.ndarray,
        beta: float = 10.0,
        noise: float = 1e-13,
        max_group_size: int = 2,
    ):
        super().__init__(max_group_size=max_group_size)
        self.power = np.asarray(power, dtype=np.float64)
        n_plus_1 = self.power.shape[0]
        if self.power.shape != (n_plus_1, n_plus_1):
            raise ValueError(f"power matrix must be square, got {self.power.shape}")
        if (self.power < 0).any():
            raise ValueError("received powers must be non-negative")
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if noise <= 0:
            raise ValueError(f"noise must be positive, got {noise}")
        self.n_sensors = n_plus_1 - 1
        self.beta = float(beta)
        self.noise = float(noise)

    def _index(self, node: int) -> int:
        if node == HEAD:
            return self.n_sensors
        if not 0 <= node < self.n_sensors:
            raise ValueError(f"node {node} out of range (n={self.n_sensors})")
        return node

    def _group_compatible(self, links: Sequence[Link]) -> bool:
        senders = np.array([self._index(s) for s, _ in links])
        receivers = np.array([self._index(r) for _, r in links])
        # signal[k]: wanted power at link k's receiver.
        signal = self.power[receivers, senders]
        # interference[k]: power at link k's receiver from all *other* senders.
        all_at_receiver = self.power[np.ix_(receivers, senders)]
        interference = all_at_receiver.sum(axis=1) - signal
        sinr_ok = signal >= self.beta * (self.noise + interference)
        return bool(sinr_ok.all())

    def sinr(self, link: Link, concurrent: Sequence[Link] = ()) -> float:
        """Diagnostic: the SINR link sees given *concurrent* other senders."""
        s = self._index(link[0])
        r = self._index(link[1])
        interference = sum(self.power[r, self._index(cs)] for cs, _ in concurrent)
        return float(self.power[r, s] / (self.noise + interference))


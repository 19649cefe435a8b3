"""Energy reporting across a simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import validate as _validate
from ..mac.base import ClusterPhy
from ..radio.energy import RadioState

__all__ = ["EnergyReport", "energy_report"]


@dataclass
class EnergyReport:
    """Per-sensor and aggregate energy figures from a finished run."""

    consumed_j: np.ndarray  # per sensor
    active_s: np.ndarray
    sleep_s: np.ndarray
    tx_s: np.ndarray
    rx_s: np.ndarray
    head_consumed_j: float

    @property
    def max_sensor_energy_j(self) -> float:
        return float(self.consumed_j.max()) if self.consumed_j.size else 0.0

    @property
    def mean_active_fraction(self) -> float:
        total = self.active_s + self.sleep_s
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(total > 0, self.active_s / total, 0.0)
        return float(frac.mean()) if frac.size else 0.0

    def per_sensor_table(self) -> list[dict]:
        return [
            {
                "sensor": i,
                "consumed_j": float(self.consumed_j[i]),
                "active_s": float(self.active_s[i]),
                "sleep_s": float(self.sleep_s[i]),
                "tx_s": float(self.tx_s[i]),
                "rx_s": float(self.rx_s[i]),
            }
            for i in range(self.consumed_j.shape[0])
        ]


def energy_report(phy: ClusterPhy) -> EnergyReport:
    """Snapshot energy accounting from a cluster's transceivers.

    Call after ``phy.finalize()`` so dwell times integrate to ``sim.now``.
    """
    n = phy.n_sensors
    consumed = np.zeros(n)
    active = np.zeros(n)
    sleep = np.zeros(n)
    tx = np.zeros(n)
    rx = np.zeros(n)
    for i in range(n):
        meter = phy.transceivers[i].meter
        consumed[i] = meter.consumed_j
        active[i] = meter.active_time_s()
        sleep[i] = meter.dwell_s[RadioState.SLEEP]
        tx[i] = meter.dwell_s[RadioState.TX]
        rx[i] = meter.dwell_s[RadioState.RX]
    report = EnergyReport(
        consumed_j=consumed,
        active_s=active,
        sleep_s=sleep,
        tx_s=tx,
        rx_s=rx,
        head_consumed_j=phy.transceivers[phy.head_index].meter.consumed_j,
    )
    # Monotone-drain / non-negative-residual invariants (DESIGN.md §8).
    # Dwell sums are only compared against the clock once meters have been
    # finalized to sim.now; over-accounting is a bug at any point.
    _validate.check_energy_report(
        report, elapsed=phy.sim.now, hint=f"energy_report(n={n}, t={phy.sim.now:.3f})"
    )
    return report

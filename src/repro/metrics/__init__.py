"""Measurement layer: active time, lifetime, energy, degradation,
availability and staleness.  Fig. 7(b)'s throughput is read off the run
results (``PollingSimResult.throughput_ratio``, ``SmacSimResult.throughput_bps``)."""

from .activetime import ActiveTimeConfig, ActiveTimeResult, CycleRecord, simulate_active_time
from .availability import AvailabilityReport, FaultRecovery, availability_report
from .degradation import DegradationReport, degradation_report, reconcile_dropped_demand
from .energy import EnergyReport, energy_report
from .staleness import StalenessReport, staleness_report
from .lifetime import (
    EnergyRateModel,
    LifetimeResult,
    evaluate_lifetime_ratio,
    evaluate_lifetime_ratio_for_cluster,
)

__all__ = [
    "ActiveTimeConfig",
    "ActiveTimeResult",
    "CycleRecord",
    "simulate_active_time",
    "AvailabilityReport",
    "FaultRecovery",
    "availability_report",
    "DegradationReport",
    "degradation_report",
    "reconcile_dropped_demand",
    "EnergyRateModel",
    "LifetimeResult",
    "evaluate_lifetime_ratio",
    "evaluate_lifetime_ratio_for_cluster",
    "EnergyReport",
    "energy_report",
    "StalenessReport",
    "staleness_report",
]

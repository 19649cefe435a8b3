"""Discrete-event simulation substrate (the reproduction's ns-2 stand-in).

Public surface:

* :class:`Simulator` — the event-heap kernel.
* :class:`Process`, :func:`spawn`, :class:`Timeout`, :class:`Signal`,
  :class:`AnyOf`, :class:`AllOf`, :class:`Interrupted` — coroutine processes.
* :class:`RngStreams` — named, independent seeded random streams.
* :class:`Tracer` — per-kind PHY event counts.
* :mod:`repro.sim.units` — canonical units and airtime helpers.
"""

from .kernel import EventHandle, SimulationError, Simulator
from .process import (
    AllOf,
    AnyOf,
    Interrupted,
    Process,
    ProcessError,
    Signal,
    Timeout,
    spawn,
)
from .rng import RngStreams, derive_seed
from .trace import Tracer
from .units import transmission_time

__all__ = [
    "Simulator",
    "EventHandle",
    "SimulationError",
    "Process",
    "ProcessError",
    "spawn",
    "Timeout",
    "Signal",
    "AnyOf",
    "AllOf",
    "Interrupted",
    "RngStreams",
    "derive_seed",
    "Tracer",
    "transmission_time",
]

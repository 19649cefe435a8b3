"""Constant-bit-rate traffic sources (the paper's workload, Sec. VI).

"CBR traffic on the top of UDP is generated to measure the throughput" —
each sensor produces fixed-size packets at a constant byte rate.  A
*data generating rate* of r Bps with 80-byte packets means one packet every
80/r seconds.  A small deterministic per-sensor phase offset desynchronizes
sources (all sensors generating in the same instant is both unrealistic and
a measurement artifact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..radio.packet import DEFAULT_SIZES
from ..sim.kernel import Simulator
from ..sim.rng import RngStreams

__all__ = ["CbrSource", "attach_cbr_sources", "packets_per_cycle"]


def packets_per_cycle(rate_bps: float, cycle_s: float, packet_bytes: int) -> float:
    """Average packets a sensor generates per duty cycle (may be fractional)."""
    if rate_bps < 0 or cycle_s <= 0 or packet_bytes <= 0:
        raise ValueError("rates, cycle and packet size must be positive")
    return rate_bps * cycle_s / packet_bytes


@dataclass
class CbrSource:
    """Generates one sensor's packets by calling *deliver* on schedule."""

    sim: Simulator
    deliver: Callable[[], None]
    rate_bps: float
    packet_bytes: int
    phase: float = 0.0
    start_at: float = 0.0  # extra delay before the first tick (node joins late)
    generated: int = 0

    def start(self, until: float | None = None) -> None:
        if self.rate_bps <= 0:
            return
        self._until = until
        interval = self.packet_bytes / self.rate_bps
        self.sim.schedule(self.start_at + self.phase + interval, self._tick, interval)

    def _tick(self, interval: float) -> None:
        if self._until is not None and self.sim.now > self._until:
            return
        self.deliver()
        self.generated += 1
        self.sim.schedule(interval, self._tick, interval)

    # CBR ticks only append to application queues; they never touch radio or
    # meter state, so the vector slot engine may batch across them (the
    # kernel's quiet_until() skips callbacks carrying this marker).
    _tick._radio_neutral = True


def attach_cbr_sources(
    sim: Simulator,
    sensors,
    rate_bps: float,
    packet_bytes: int = DEFAULT_SIZES.data,
    seed: int = 0,
    until: float | None = None,
    start_ats: dict[int, float] | None = None,
) -> list[CbrSource]:
    """One CBR source per sensor agent (anything with ``generate_packet()``).

    Phase offsets are drawn uniformly in one inter-packet interval from a
    dedicated stream, so runs are reproducible and sources are spread out.
    Phases are drawn in agent order for *every* agent — late joiners must be
    appended after the existing sensors so the existing phases stay
    bit-identical — and ``start_ats`` (agent position -> simulation time)
    delays a source's first packet until its node has actually powered up.
    """
    rng = RngStreams(seed).get("cbr-phase")
    sources: list[CbrSource] = []
    interval = packet_bytes / rate_bps if rate_bps > 0 else 0.0
    for index, agent in enumerate(sensors):
        src = CbrSource(
            sim=sim,
            deliver=agent.generate_packet,
            rate_bps=rate_bps,
            packet_bytes=packet_bytes,
            phase=float(rng.uniform(0.0, interval)) if interval else 0.0,
            start_at=float(start_ats.get(index, 0.0)) if start_ats else 0.0,
        )
        src.start(until=until)
        sources.append(src)
    return sources

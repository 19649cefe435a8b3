"""The per-node half-duplex radio state machine.

States SLEEP / IDLE / RX / TX with the energy meter integrating dwell times.
The MAC above drives ``sleep() / wake() / transmit(frame)`` and receives
decoded frames through a callback; the medium drives RX/IDLE flips as
transmissions come and go (a listening radio draws RX power whenever
something audible is in the air — overhearing costs energy even for frames
addressed elsewhere, one of the paper's motivating wastes).
"""

from __future__ import annotations

from typing import Callable

from ..sim.kernel import Simulator
from .channel import RadioMedium
from .energy import EnergyMeter, EnergyParams, RadioState
from .packet import Frame

__all__ = ["Transceiver", "RadioError"]


class RadioError(RuntimeError):
    """Misuse of the radio (transmitting while asleep, nested tx, ...)."""


class Transceiver:
    """One node's radio, attached to a :class:`RadioMedium`."""

    def __init__(self, sim: Simulator, medium: RadioMedium, node: int):
        self.sim = sim
        self.medium = medium
        self.node = node
        self.meter = EnergyMeter(params=EnergyParams(), last_change=sim.now)
        # When this radio started listening; None while it sleeps or sends.
        self._listen_since: float | None = sim.now
        self._tx_until: float | None = None
        self.dead = False
        self._stunned = False
        self._rx_callback: Callable[[Frame, float], None] | None = None
        # statistics
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_garbled = 0
        medium.register(node, self)

    # -- MAC-facing API -----------------------------------------------------------

    def on_receive(self, fn: Callable[[Frame, float], None]) -> None:
        """Install the decoded-frame callback (frame, rx_power_w)."""
        self._rx_callback = fn

    @property
    def state(self) -> RadioState:
        return self.meter.state

    @property
    def is_sleeping(self) -> bool:
        return self.meter.state is RadioState.SLEEP

    @property
    def is_transmitting(self) -> bool:
        return self._tx_until is not None and self._tx_until > self.sim.now

    def sleep(self) -> None:
        """Power down.  Any in-flight reception is lost; tx must be over."""
        if self.is_transmitting:
            raise RadioError(f"node {self.node} cannot sleep mid-transmission")
        self._listen_since = None
        self.meter.change_state(RadioState.SLEEP, self.sim.now)

    def fail(self) -> None:
        """Fail-stop: the radio goes dark permanently (node crash).

        If a transmission is in flight it finishes first — the crash takes
        effect at frame end, matching the usual fail-stop abstraction where a
        node never emits a *partial* frame.  After that, ``wake()`` is a
        no-op: the node is unreachable forever.
        """
        self.dead = True
        self._go_dark()

    def stun(self, duration: float) -> None:
        """Transient outage: dark for *duration* seconds, then listening again."""
        if self.dead or self._stunned or duration <= 0:
            return
        self._stunned = True
        self._go_dark()
        self.sim.schedule(duration, self._end_stun).owner = self

    def _end_stun(self) -> None:
        self._stunned = False
        if not self.dead and self.is_sleeping:
            self.wake()

    def _go_dark(self) -> None:
        self._listen_since = None
        if not self.is_transmitting and self.meter.state is not RadioState.SLEEP:
            self.meter.change_state(RadioState.SLEEP, self.sim.now)

    def wake(self) -> None:
        """Power up into listening (no-op for dead or stunned radios)."""
        if self.dead or self._stunned:
            return
        if not self.is_sleeping:
            return
        self._listen_since = self.sim.now
        self.meter.change_state(RadioState.IDLE, self.sim.now)
        self._refresh_rx_state()

    def transmit(self, frame: Frame) -> float:
        """Start sending; returns the airtime."""
        if self.is_sleeping:
            raise RadioError(f"node {self.node} cannot transmit while asleep")
        if self.is_transmitting:
            raise RadioError(f"node {self.node} is already transmitting")
        duration = self.medium.airtime(frame)
        self._tx_until = self.sim.now + duration
        self._listen_since = None  # half-duplex: tx kills reception
        self.meter.change_state(RadioState.TX, self.sim.now)
        self.medium.begin_transmission(self.node, frame)
        self.frames_sent += 1
        self.sim.schedule(duration, self._tx_finished).owner = self
        return duration

    def carrier_busy(self) -> bool:
        """CSMA hook: does the medium sound busy from here?"""
        return self.medium.carrier_busy(self.node)

    # -- medium-facing API -----------------------------------------------------------

    def listened_through(self, start: float, end: float) -> bool:
        """Was this radio continuously listening over [start, end]?"""
        return self._listen_since is not None and self._listen_since <= start

    def deliver(self, frame: Frame, rx_power: float) -> None:
        self.frames_received += 1
        if self._rx_callback is not None:
            self._rx_callback(frame, rx_power)

    def deliver_garbled(self, frame: Frame) -> None:
        self.frames_garbled += 1

    # -- internals ----------------------------------------------------------------

    def _tx_finished(self) -> None:
        self._tx_until = None
        if self.dead or self._stunned:
            # Crash/stun arrived mid-transmission: go dark now instead of
            # returning to listening.
            self.meter.change_state(RadioState.SLEEP, self.sim.now)
            return
        self._listen_since = self.sim.now
        self.meter.change_state(RadioState.IDLE, self.sim.now)
        self._refresh_rx_state()

    def _refresh_rx_state(self) -> None:
        """Listening radios draw RX power while anything audible is in the air."""
        if self._listen_since is None:
            return
        busy = self.medium.in_air_power_at(self.node) >= self.medium.cs_threshold
        target = RadioState.RX if busy else RadioState.IDLE
        if self.meter.state is not target:
            self.meter.change_state(target, self.sim.now)

    def finalize(self) -> None:
        """Close energy books at simulation end."""
        self.meter.finalize(self.sim.now)

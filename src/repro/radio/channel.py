"""The shared wireless medium: SINR capture, collisions, carrier sense.

One :class:`RadioMedium` serves all nodes of a simulation.  Node *i*'s
position and transmit power live in arrays; pairwise receive powers are the
vectorized product of tx power and propagation gain, recomputed whenever
:meth:`RadioMedium.update_positions` moves the nodes (mobility, head
placement).

Reception semantics (matching ns-2's capture behavior closely enough for
the reproduced shapes):

* a frame is decodable at node *r* iff its receive power clears the
  sensitivity threshold, *r* listened continuously for the whole airtime,
  and the SINR against the **sum** of all overlapping transmissions clears
  the capture threshold *beta* — accumulated interference, not pairwise
  (the Sec. III-B / Fig. 3 point);
* carrier sense reports busy when total in-air power at the node exceeds
  the CS threshold (S-MAC's CSMA needs this);
* the medium is oblivious to addressing: every listener that decodes gets
  the frame, and the MAC filters by destination (overhearing costs energy,
  exactly the waste the paper attributes to contention MACs).

Channels scope the work (Sec. V-G): a listener's in-air sum reads only
same-channel senders, so a transmission start or end re-evaluates only the
radios tuned to the sender's channel, and a frame is decoded only at radios
whose receive power clears the sensitivity.  A retune, a move or a new
radio marks the medium stale instead; the next start or end anywhere then
re-evaluates every radio, exactly when an unscoped medium would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..sim.kernel import Simulator
from ..sim.trace import Tracer
from ..sim.units import transmission_time
from .packet import Frame

if TYPE_CHECKING:
    from .transceiver import Transceiver

__all__ = ["RadioMedium", "ActiveTransmission"]


@dataclass
class ActiveTransmission:
    """A frame currently in the air."""

    sender: int
    frame: Frame
    start: float
    end: float
    # Every transmission that overlapped this one in the air, on any channel
    # (the decode filters by the channels current at frame end).
    interferers: list["ActiveTransmission"] = field(default_factory=list)


class RadioMedium:
    """The broadcast channel shared by all nodes."""

    def __init__(
        self,
        sim: Simulator,
        positions: np.ndarray,
        tx_power_w: np.ndarray,
        propagation,
        bitrate_bps: float = 200_000.0,
        rx_sensitivity_w: float = 1e-11,
        cs_threshold_w: float = 1e-12,
        capture_beta: float = 10.0,
        noise_w: float = 1e-13,
        tracer: Tracer | None = None,
        frame_error_rate: float = 0.0,
        error_seed: int = 0,
    ):
        self.sim = sim
        self.positions = np.asarray(positions, dtype=np.float64)
        self.n_nodes = self.positions.shape[0]
        tx_power_w = np.asarray(tx_power_w, dtype=np.float64)
        if tx_power_w.shape != (self.n_nodes,):
            raise ValueError(
                f"tx_power_w must have shape ({self.n_nodes},), got {tx_power_w.shape}"
            )
        self.bitrate = float(bitrate_bps)
        self.rx_sensitivity = float(rx_sensitivity_w)
        self.cs_threshold = float(cs_threshold_w)
        self.beta = float(capture_beta)
        self.noise = float(noise_w)
        self.tracer = tracer or Tracer()
        # Kept so mobility can recompute rx_power from moved positions.
        self.tx_power_w = tx_power_w
        self.propagation = propagation
        # sender -> [(node, transceiver)] of registered radios that can hear
        # it above sensitivity, in registration order (built lazily).
        self._decoders: dict[int, list[tuple[int, Transceiver]]] = {}
        self._stale = False
        self._set_rx_power(self._compute_rx_power())
        if not 0.0 <= frame_error_rate < 1.0:
            raise ValueError(f"frame error rate must be in [0,1), got {frame_error_rate}")
        self.frame_error_rate = float(frame_error_rate)
        self._error_rng = np.random.default_rng(error_seed)
        # Radio channel per node (Sec. V-G: adjacent clusters on different
        # channels).  Same-channel transmissions interfere; cross-channel
        # ones are mutually invisible.  ``channels`` is a read-only view of
        # the array only :meth:`set_channel` writes, so every retune marks
        # the medium stale.
        self._channel_array = np.zeros(self.n_nodes, dtype=np.int64)
        self.channels = self._channel_array.view()
        self.channels.flags.writeable = False
        self._active: list[ActiveTransmission] = []
        self._transceivers: dict[int, Transceiver] = {}
        # Per-channel rosters of registered radios, in registration order;
        # rebuilt by the full refresh a stale medium owes.
        self._rosters: dict[int, list[Transceiver]] = {}
        # Optional per-link loss process (e.g. Gilbert–Elliott bursty fading)
        # consulted in the decode path: anything with
        # ``frame_fails(receiver, sender, now) -> bool``.  None = clean links.
        self.link_loss = None

    def _compute_rx_power(self) -> np.ndarray:
        diff = self.positions[:, np.newaxis, :] - self.positions[np.newaxis, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        gains = self.propagation.gain_matrix(dist)
        rx = gains * self.tx_power_w[np.newaxis, :]
        np.fill_diagonal(rx, 0.0)
        return rx

    def _set_rx_power(self, rx: np.ndarray) -> None:
        # rx_power[r, s]: what r sees when s transmits.  Replaced whole, never
        # written: the vector engine's geometry cache keys on the array's
        # identity, and the decode lists derive from it.
        rx.flags.writeable = False
        self.rx_power = rx
        self._decoders.clear()
        self._stale = True

    def update_positions(self, positions: np.ndarray) -> None:
        """Move nodes: replace positions and receive powers (mobility).

        ``rx_power`` is *replaced*, never mutated in place: consumers that
        captured the old array (the head's planning oracle) deliberately keep
        seeing the topology as it was when they were built — that staleness
        is the physical reality of a plan computed before the nodes moved,
        and a re-cluster pass is what refreshes it.  The medium itself (the
        ground truth every decode consults through ``self.rx_power``) always
        uses the current geometry.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != self.positions.shape:
            raise ValueError(
                f"positions must have shape {self.positions.shape}, "
                f"got {positions.shape}"
            )
        self.positions = positions.copy()
        self._set_rx_power(self._compute_rx_power())

    # -- registration -------------------------------------------------------------

    def register(self, node: int, transceiver: Transceiver) -> None:
        if node in self._transceivers:
            raise ValueError(f"node {node} already registered")
        self._transceivers[node] = transceiver
        self._decoders.clear()
        self._stale = True

    def set_channel(self, node: int, channel: int) -> None:
        """Assign a node's radio channel (default: everyone on channel 0).

        Takes effect on RX/IDLE states at the next transmission start or end
        anywhere on the medium, never at the retune itself.
        """
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
        self._channel_array[node] = int(channel)
        self._stale = True

    # -- queries -------------------------------------------------------------------

    def airtime(self, frame: Frame) -> float:
        return transmission_time(frame.size_bytes, self.bitrate)

    def in_air_power_at(self, node: int) -> float:
        """Total power node currently sees from active same-channel senders."""
        total = 0.0
        ch = self.channels[node]
        for tx in self._active:
            if tx.sender == node:
                continue
            if self.channels[tx.sender] != ch:
                continue
            total += float(self.rx_power[node, tx.sender])
        return total

    def carrier_busy(self, node: int) -> bool:
        """Carrier-sense: anything audible above the CS threshold?"""
        return self.in_air_power_at(node) >= self.cs_threshold

    def hears(self, receiver: int, sender: int) -> bool:
        """Static link predicate (power alone clears sensitivity & capture)."""
        p = float(self.rx_power[receiver, sender])
        return p >= self.rx_sensitivity and p >= self.beta * self.noise

    def hearing_matrix(self) -> np.ndarray:
        """Boolean static connectivity of the whole medium."""
        ok = (self.rx_power >= self.rx_sensitivity) & (
            self.rx_power >= self.beta * self.noise
        )
        np.fill_diagonal(ok, False)
        return ok

    # -- transmission lifecycle ------------------------------------------------------

    def begin_transmission(self, sender: int, frame: Frame) -> ActiveTransmission:
        """Called by the sender's transceiver; returns the in-air record."""
        now = self.sim.now
        record = ActiveTransmission(
            sender=sender, frame=frame, start=now, end=now + self.airtime(frame)
        )
        # Mutual interference bookkeeping with everything already in the air.
        for other in self._active:
            other.interferers.append(record)
            record.interferers.append(other)
        self._active.append(record)
        self.tracer.emit(now, "phy_tx_start", node=sender, frame=frame.ftype.value)
        self.sim.at(record.end, self._end_transmission, record)
        self._refresh_rx_states(sender)
        return record

    def _end_transmission(self, record: ActiveTransmission) -> None:
        self._active.remove(record)
        now = self.sim.now
        sender = record.sender
        self.tracer.emit(now, "phy_tx_end", node=sender, frame=record.frame.ftype.value)
        # Deliver to every node that could decode it.
        decoders = self._decoders.get(sender)
        if decoders is None:
            decoders = self._decoders[sender] = self._audible_from(sender)
        for node, trx in decoders:
            outcome = self._decode_outcome(node, record, trx)
            if outcome == "ok":
                self.tracer.emit(
                    now, "phy_rx_ok", node=node, frame=record.frame.ftype.value
                )
                trx.deliver(record.frame, float(self.rx_power[node, sender]))
            elif outcome == "collision":
                self.tracer.emit(
                    now, "phy_rx_collision", node=node, frame=record.frame.ftype.value
                )
                trx.deliver_garbled(record.frame)
        self._refresh_rx_states(sender)

    def _audible_from(self, sender: int) -> list[tuple[int, Transceiver]]:
        """Registered radios other than *sender* hearing it above sensitivity.

        Every other radio decodes the sender's frames as 'inaudible' before
        any RNG draw, so skipping them leaves the draw order unchanged.
        """
        column = self.rx_power[:, sender]
        sens = self.rx_sensitivity
        return [
            (node, trx)
            for node, trx in self._transceivers.items()
            if node != sender and column[node] >= sens
        ]

    def _decode_outcome(self, node: int, record: ActiveTransmission, trx) -> str:
        """'ok', 'collision' (audible but broken), or 'inaudible'.

        Only called for radios above sensitivity (:meth:`_audible_from`).
        """
        if self.channels[node] != self.channels[record.sender]:
            return "inaudible"  # tuned to a different channel
        signal = float(self.rx_power[node, record.sender])
        if not trx.listened_through(record.start, record.end):
            return "inaudible"  # asleep or transmitting; never heard it
        interference = sum(
            float(self.rx_power[node, other.sender])
            for other in record.interferers
            if other.sender != node and self.channels[other.sender] == self.channels[node]
        )
        if signal < self.beta * (self.noise + interference):
            return "collision"
        if self.frame_error_rate > 0.0 and self._error_rng.random() < self.frame_error_rate:
            return "collision"  # random bit errors: audible but undecodable
        if self.link_loss is not None and self.link_loss.frame_fails(
            node, record.sender, self.sim.now
        ):
            return "collision"  # bursty fade: audible but undecodable
        return "ok"

    def _refresh_rx_states(self, sender: int) -> None:
        """Re-evaluate RX/IDLE after *sender*'s transmission started or ended.

        Only radios on the sender's channel can have seen their in-air sum
        change.  A stale medium (retune, move or new radio since the last
        call) re-evaluates every radio and rebuilds the channel rosters.
        """
        if self._stale:
            self._stale = False
            rosters: dict[int, list[Transceiver]] = {}
            ch = self.channels.tolist()
            for node, trx in self._transceivers.items():
                rosters.setdefault(ch[node], []).append(trx)
            self._rosters = rosters
            roster = self._transceivers.values()
        else:
            roster = self._rosters.get(int(self.channels[sender]), ())
        for trx in roster:
            trx._refresh_rx_state()

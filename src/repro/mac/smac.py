"""S-MAC + AODV baseline (the paper's Fig. 7(b) comparison, refs [8]).

S-MAC essentials implemented here:

* a **shared periodic listen/sleep schedule** — every node wakes for
  ``duty_cycle * frame_length`` then sleeps the remainder (100% duty =
  always listening).  We give all nodes one synchronized virtual cluster
  schedule, S-MAC's steady state, so SYNC maintenance traffic is reduced to
  a small periodic beacon from the sink;
* **CSMA with binary backoff** plus RTS/CTS/DATA/ACK unicast handshakes and
  NAV-style deferral from overheard RTS/CTS;
* transfers that win the channel complete even if they spill past the
  listen period (both parties stay awake; everyone else sleeps on
  schedule).

Routing is on-demand **AODV** (:mod:`repro.routing.aodv`): RREQ floods when
a sensor holds data but no fresh route to the sink, RREP back-propagation,
RERR + re-flood when a handshake fails repeatedly.  These control packets
contend for the same channel as data — the overhead the paper blames for
S-MAC+AODV's throughput collapse, alongside collision losses from random
access.

Energy and active time fall out of the shared PHY transceivers, so the
comparison with the polling MAC is apples-to-apples.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from ..radio.packet import BROADCAST_ADDR, DEFAULT_SIZES, Frame, FrameSizes, FrameType
from ..routing.aodv import BROADCAST as AODV_BROADCAST
from ..routing.aodv import AodvAgent
from ..sim.process import AnyOf, Process, Signal, Timeout
from ..sim.rng import RngStreams
from ..sim.units import transmission_time
from .base import ClusterPhy
from .pollmac import AppPacket

__all__ = ["SmacParams", "SmacNode", "SmacNetwork"]

_packet_seq = itertools.count(1_000_000)


@dataclass(frozen=True)
class SmacParams:
    """Timing and protocol constants (S-MAC-paper ballpark at 200 kbps)."""

    frame_length: float = 1.0
    duty_cycle: float = 1.0  # fraction of the frame spent listening
    contention_slot: float = 1e-3
    contention_window: int = 16
    difs: float = 10e-3
    sifs: float = 5e-3
    cts_timeout: float = 45e-3
    ack_timeout: float = 45e-3
    max_link_retries: int = 3
    max_route_retries: int = 3
    route_lifetime: float = 30.0
    rreq_backoff: float = 1.5  # RFC-3561-scale net traversal wait
    queue_limit: int = 50

    def listen_time(self) -> float:
        return self.duty_cycle * self.frame_length


@dataclass
class _PendingTransfer:
    dest: int
    packet: AppPacket


class SmacNode:
    """One node running S-MAC + AODV (sensors and the sink alike)."""

    def __init__(
        self,
        net: "SmacNetwork",
        node: int,
        is_sink: bool = False,
    ):
        self.net = net
        self.node = node
        self.is_sink = is_sink
        self.phy = net.phy
        self.sim = net.phy.sim
        self.params = net.params
        self.trx = net.phy.transceivers[node]
        self.aodv = AodvAgent(node_id=node, route_lifetime=net.params.route_lifetime)
        self.queue: deque[_PendingTransfer] = deque()
        self.rng = net.rng.fork(node).get("backoff")
        # Handshake signals.
        self._cts_signal = Signal(f"smac{node}.cts")
        self._ack_signal = Signal(f"smac{node}.ack")
        self.nav_until = 0.0
        self._rreq_pending_until = 0.0
        self._route_retries = 0
        # stats
        self.generated = 0
        self.delivered: list[AppPacket] = []
        self.dropped_queue = 0
        self.dropped_route = 0
        self.data_tx = 0
        self.control_tx = 0
        self.trx.on_receive(self._on_frame)
        self.process: Process | None = None

    # -- application --------------------------------------------------------------

    def generate_packet(self) -> None:
        self.generated += 1
        self._enqueue(
            AppPacket(origin=self.node, seq=next(_packet_seq), created=self.sim.now)
        )

    def _enqueue(self, packet: AppPacket) -> None:
        if len(self.queue) >= self.params.queue_limit:
            self.dropped_queue += 1
            return
        self.queue.append(_PendingTransfer(dest=self.net.sink_index, packet=packet))

    # -- schedule helpers -----------------------------------------------------------

    def _frame_start(self, now: float) -> float:
        return (now // self.params.frame_length) * self.params.frame_length

    def _listen_end(self, now: float) -> float:
        return self._frame_start(now) + self.params.listen_time()

    def _in_listen(self, now: float) -> bool:
        return (now - self._frame_start(now)) < self.params.listen_time()

    # -- the node main loop ------------------------------------------------------------

    def start(self) -> Process:
        self.process = Process(self.sim, self._run(), name=f"smac-{self.node}")
        return self.process

    def _run(self):
        params = self.params
        while True:
            now = self.sim.now
            if not self._in_listen(now):
                # Sleep out the rest of the frame.
                next_wake = self._frame_start(now) + params.frame_length
                if not self.trx.is_transmitting:
                    self.trx.sleep()
                    self.sim.at(next_wake, self.trx.wake)
                yield Timeout(next_wake - now)
                continue
            if not self.queue:
                # Idle-listen until something arrives or listen ends.
                yield Timeout(
                    min(params.contention_slot * 4, self._listen_end(now) - now) or params.contention_slot
                )
                continue
            # Head-of-line packet: ensure a route, then handshake it over.
            head = self.queue[0]
            next_hop = self.aodv.route_to(head.dest, self.sim.now)
            if next_hop is None and not self.is_sink:
                yield from self._ensure_route(head)
                continue
            if next_hop is None:
                self.queue.popleft()
                continue
            success = yield from self._unicast_data(next_hop, head)
            if success:
                if self.queue and self.queue[0] is head:
                    self.queue.popleft()
                self._route_retries = 0
            else:
                # Link-level failure: AODV invalidation + RERR broadcast.
                for msg, _dst in self.aodv.invalidate(head.dest):
                    yield from self._broadcast_control(msg)

    # -- route discovery ------------------------------------------------------------

    def _ensure_route(self, head: _PendingTransfer):
        params = self.params
        if self.sim.now < self._rreq_pending_until:
            yield Timeout(params.contention_slot * 4)
            return
        if self._route_retries >= params.max_route_retries:
            self.queue.popleft()
            self.dropped_route += 1
            self._route_retries = 0
            return
        self._route_retries += 1
        self._rreq_pending_until = self.sim.now + params.rreq_backoff
        req, _ = self.aodv.make_rreq(head.dest)
        yield from self._broadcast_control(req)

    # -- channel access primitives --------------------------------------------------------

    def _backoff_delay(self) -> float:
        slots = int(self.rng.integers(0, self.params.contention_window))
        return self.params.difs + slots * self.params.contention_slot

    def _wait_channel(self):
        """Carrier sense + NAV + random backoff; returns when clear to send."""
        while True:
            yield Timeout(self._backoff_delay())
            now = self.sim.now
            if now < self.nav_until or self.trx.is_sleeping:
                yield Timeout(max(self.nav_until - now, self.params.contention_slot))
                continue
            if not self.trx.carrier_busy():
                return

    def _broadcast_control(self, payload):
        yield from self._wait_channel()
        if self.trx.is_sleeping or self.trx.is_transmitting:
            return
        frame = Frame(
            ftype=FrameType.AODV,
            src=self.node,
            dst=BROADCAST_ADDR,
            size_bytes=self.net.sizes.aodv,
            payload=payload,
        )
        self.control_tx += 1
        dur = self.trx.transmit(frame)
        yield Timeout(dur)

    def _unicast_data(self, next_hop: int, transfer: _PendingTransfer):
        """RTS/CTS/DATA/ACK with retries; returns True on MACK received."""
        params = self.params
        sizes = self.net.sizes
        bitrate = self.phy.medium.bitrate
        exchange = (
            transmission_time(sizes.cts, bitrate)
            + transmission_time(sizes.data, bitrate)
            + transmission_time(sizes.mack, bitrate)
            + 4 * params.sifs
        )
        for _attempt in range(params.max_link_retries):
            yield from self._wait_channel()
            if self.trx.is_sleeping or self.trx.is_transmitting:
                continue
            rts = Frame(
                ftype=FrameType.RTS,
                src=self.node,
                dst=next_hop,
                size_bytes=sizes.rts,
                payload={"duration": exchange},
            )
            self.control_tx += 1
            dur = self.trx.transmit(rts)
            yield Timeout(dur)
            kind, _val = yield AnyOf([self._cts_signal, Timeout(params.cts_timeout)])
            if kind != 0:
                continue  # CTS timeout: collided or receiver unavailable
            yield Timeout(params.sifs)
            if self.trx.is_transmitting or self.trx.is_sleeping:
                continue
            data = Frame(
                ftype=FrameType.DATA,
                src=self.node,
                dst=next_hop,
                size_bytes=sizes.data,
                payload={"packet": transfer.packet, "final_dest": transfer.dest},
            )
            self.data_tx += 1
            dur = self.trx.transmit(data)
            yield Timeout(dur)
            kind, _val = yield AnyOf([self._ack_signal, Timeout(params.ack_timeout)])
            if kind == 0:
                return True
        return False

    # -- reception ------------------------------------------------------------------

    def _on_frame(self, frame: Frame, rx_power: float) -> None:
        if frame.ftype is FrameType.RTS:
            self._on_rts(frame)
        elif frame.ftype is FrameType.CTS:
            self._on_cts(frame)
        elif frame.ftype is FrameType.DATA:
            self._on_data(frame)
        elif frame.ftype is FrameType.MACK:
            self._on_mack(frame)
        elif frame.ftype is FrameType.AODV:
            self._on_aodv(frame)

    def _on_rts(self, frame: Frame) -> None:
        duration = frame.payload["duration"]
        if frame.dst != self.node:
            self.nav_until = max(self.nav_until, self.sim.now + duration)
            return
        if self.trx.is_transmitting:
            return
        cts = Frame(
            ftype=FrameType.CTS,
            src=self.node,
            dst=frame.src,
            size_bytes=self.net.sizes.cts,
            payload={"duration": duration},
        )
        self.control_tx += 1
        self.sim.schedule(self.params.sifs, self._safe_transmit, cts)

    def _on_cts(self, frame: Frame) -> None:
        if frame.dst != self.node:
            self.nav_until = max(self.nav_until, self.sim.now + frame.payload["duration"])
            return
        self._cts_signal.fire(frame.src)

    def _on_data(self, frame: Frame) -> None:
        if frame.dst != self.node:
            return
        ack = Frame(
            ftype=FrameType.MACK,
            src=self.node,
            dst=frame.src,
            size_bytes=self.net.sizes.mack,
        )
        self.control_tx += 1
        self.sim.schedule(self.params.sifs, self._safe_transmit, ack)
        packet: AppPacket = frame.payload["packet"]
        final_dest: int = frame.payload["final_dest"]
        if final_dest == self.node:
            self.delivered.append(packet)
        else:
            self._enqueue_forward(packet, final_dest)

    def _enqueue_forward(self, packet: AppPacket, dest: int) -> None:
        if len(self.queue) >= self.params.queue_limit:
            self.dropped_queue += 1
            return
        self.queue.append(_PendingTransfer(dest=dest, packet=packet))

    def _on_mack(self, frame: Frame) -> None:
        if frame.dst == self.node:
            self._ack_signal.fire(frame.src)

    def _on_aodv(self, frame: Frame) -> None:
        if frame.dst != BROADCAST_ADDR and frame.dst != self.node:
            return  # someone else's unicast RREP, overheard; not ours to forward
        replies = self.aodv.on_receive(
            frame.payload, frame.src, self.sim.now, is_dest=self.is_sink
        )
        for msg, dst in replies:
            out = Frame(
                ftype=FrameType.AODV,
                src=self.node,
                dst=BROADCAST_ADDR if dst == AODV_BROADCAST else dst,
                size_bytes=self.net.sizes.aodv,
                payload=msg,
            )
            self.control_tx += 1
            # Wide jitter decorrelates the flood re-broadcasts; 30 nodes
            # answering within a frame-time would be a guaranteed pile-up.
            jitter = float(self.rng.uniform(1.0, 20.0)) * self.params.contention_slot
            self.sim.schedule(self.params.sifs + jitter, self._safe_transmit, out)

    def _safe_transmit(self, frame: Frame, attempts: int = 6) -> None:
        """Carrier-sensed control transmission with random retry backoff.

        Immediate protocol responses (CTS/MACK) go out regardless — the
        medium is reserved for them; everything else defers while busy.
        """
        if self.trx.is_sleeping or self.trx.is_transmitting:
            return
        urgent = frame.ftype in (FrameType.CTS, FrameType.MACK)
        if not urgent and (self.trx.carrier_busy() or self.sim.now < self.nav_until):
            if attempts > 1:
                backoff = float(self.rng.uniform(2.0, 16.0)) * self.params.contention_slot
                self.sim.schedule(backoff, self._safe_transmit, frame, attempts - 1)
            return
        self.trx.transmit(frame)


class SmacNetwork:
    """All S-MAC nodes of one cluster plus the sink (the cluster head)."""

    def __init__(
        self,
        phy: ClusterPhy,
        params: SmacParams = SmacParams(),
        sizes: FrameSizes = DEFAULT_SIZES,
        seed: int = 0,
    ):
        self.phy = phy
        self.params = params
        self.sizes = sizes
        self.rng = RngStreams(seed)
        self.sink_index = phy.head_index
        self.nodes: list[SmacNode] = [
            SmacNode(self, i, is_sink=(i == self.sink_index))
            for i in range(phy.n_sensors + 1)
        ]

    @property
    def sensors(self) -> list[SmacNode]:
        return self.nodes[: self.phy.n_sensors]

    @property
    def sink(self) -> SmacNode:
        return self.nodes[self.sink_index]

    def start(self) -> None:
        for node in self.nodes:
            node.start()

    # -- measurements ----------------------------------------------------------------

    @property
    def packets_delivered(self) -> int:
        return len(self.sink.delivered)

    @property
    def packets_generated(self) -> int:
        return sum(n.generated for n in self.sensors)

    def control_overhead(self) -> int:
        return sum(n.control_tx + n.aodv.control_tx for n in self.nodes)

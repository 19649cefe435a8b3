"""A compact AODV implementation (RFC 3561 subset) — the baseline's router.

The paper's Fig. 7(b) baseline is "SMAC + AODV": sensors discover routes to
the cluster head on demand, and — crucially for the measured result — those
routes *die* whenever a next hop is asleep or a link breaks, forcing fresh
RREQ floods whose control packets eat the channel.  This module implements
the protocol core independent of any MAC so it can be unit-tested
synchronously and then driven by the S-MAC DES layer.

Supported machinery: RREQ flooding with (origin, rreq-id) duplicate
suppression, destination sequence numbers, RREP unicast back along reverse
routes, route lifetimes, RERR on forwarding failure, and retry with
expanding rings abstracted to a simple retry budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["Rreq", "Rrep", "Rerr", "RouteEntry", "AodvAgent", "BROADCAST"]

BROADCAST: int = -999
"""Link-layer broadcast address used by AODV control floods."""


@dataclass(frozen=True)
class Rreq:
    origin: int
    origin_seq: int
    rreq_id: int
    dest: int
    dest_seq_known: int
    hop_count: int = 0


@dataclass(frozen=True)
class Rrep:
    origin: int  # who asked
    dest: int  # who answers (route target)
    dest_seq: int
    hop_count: int
    lifetime: float


@dataclass(frozen=True)
class Rerr:
    dest: int
    dest_seq: int


@dataclass
class RouteEntry:
    next_hop: int
    hop_count: int
    dest_seq: int
    expires_at: float
    valid: bool = True


@dataclass
class AodvAgent:
    """Per-node AODV state machine.

    The surrounding MAC calls :meth:`route_to` before sending data,
    :meth:`make_rreq` to start discovery, and :meth:`on_receive` for every
    received control message; the agent returns messages to transmit as
    ``(message, link_destination)`` pairs (``BROADCAST`` or a neighbor id).
    """

    node_id: int
    route_lifetime: float = 10.0
    seq: int = 0
    rreq_id: int = 0
    routes: dict[int, RouteEntry] = field(default_factory=dict)
    _seen_rreqs: set[tuple[int, int]] = field(default_factory=set)
    # statistics the experiment harness reads
    control_tx: int = 0

    # -- data-plane queries ----------------------------------------------------

    def route_to(self, dest: int, now: float) -> int | None:
        """Valid next hop toward *dest*, or None (triggering discovery)."""
        entry = self.routes.get(dest)
        if entry is None or not entry.valid or entry.expires_at <= now:
            return None
        return entry.next_hop

    def invalidate(self, dest: int) -> list[tuple[Rerr, int]]:
        """Mark the route to *dest* broken (link failure); emit RERR."""
        entry = self.routes.get(dest)
        if entry is None or not entry.valid:
            return []
        entry.valid = False
        self.control_tx += 1
        return [(Rerr(dest=dest, dest_seq=entry.dest_seq + 1), BROADCAST)]

    # -- control-plane ----------------------------------------------------------

    def make_rreq(self, dest: int) -> tuple[Rreq, int]:
        """Originate a new route request flood for *dest*."""
        self.seq += 1
        self.rreq_id += 1
        req = Rreq(
            origin=self.node_id,
            origin_seq=self.seq,
            rreq_id=self.rreq_id,
            dest=dest,
            dest_seq_known=self.routes[dest].dest_seq if dest in self.routes else 0,
        )
        self._seen_rreqs.add((self.node_id, self.rreq_id))
        self.control_tx += 1
        return req, BROADCAST

    def on_receive(
        self, msg, from_node: int, now: float, is_dest: bool = False
    ) -> list[tuple[object, int]]:
        """Process a received control message; return messages to send.

        *is_dest* tells the agent it is the target of a RREQ (the cluster
        head sets this; sensors never answer for the head).
        """
        if isinstance(msg, Rreq):
            return self._on_rreq(msg, from_node, now, is_dest)
        if isinstance(msg, Rrep):
            return self._on_rrep(msg, from_node, now)
        if isinstance(msg, Rerr):
            return self._on_rerr(msg, from_node)
        raise TypeError(f"unknown AODV message {msg!r}")

    def _learn(self, dest: int, next_hop: int, hops: int, seq: int, now: float) -> None:
        cur = self.routes.get(dest)
        fresher = cur is None or seq > cur.dest_seq or (
            seq == cur.dest_seq and (hops < cur.hop_count or not cur.valid)
        )
        if fresher:
            self.routes[dest] = RouteEntry(
                next_hop=next_hop,
                hop_count=hops,
                dest_seq=seq,
                expires_at=now + self.route_lifetime,
            )

    def _on_rreq(
        self, msg: Rreq, from_node: int, now: float, is_dest: bool
    ) -> list[tuple[object, int]]:
        key = (msg.origin, msg.rreq_id)
        if key in self._seen_rreqs:
            return []
        self._seen_rreqs.add(key)
        # Reverse route toward the origin.
        self._learn(msg.origin, from_node, msg.hop_count + 1, msg.origin_seq, now)
        if is_dest or self.node_id == msg.dest:
            self.seq = max(self.seq, msg.dest_seq_known) + 1
            rep = Rrep(
                origin=msg.origin,
                dest=self.node_id,
                dest_seq=self.seq,
                hop_count=0,
                lifetime=self.route_lifetime,
            )
            self.control_tx += 1
            return [(rep, from_node)]
        entry = self.routes.get(msg.dest)
        if entry is not None and entry.valid and entry.dest_seq >= msg.dest_seq_known \
                and entry.expires_at > now:
            # Intermediate node answers from cache.
            rep = Rrep(
                origin=msg.origin,
                dest=msg.dest,
                dest_seq=entry.dest_seq,
                hop_count=entry.hop_count,
                lifetime=max(0.0, entry.expires_at - now),
            )
            self.control_tx += 1
            return [(rep, from_node)]
        # Re-flood.
        fwd = Rreq(
            origin=msg.origin,
            origin_seq=msg.origin_seq,
            rreq_id=msg.rreq_id,
            dest=msg.dest,
            dest_seq_known=msg.dest_seq_known,
            hop_count=msg.hop_count + 1,
        )
        self.control_tx += 1
        return [(fwd, BROADCAST)]

    def _on_rrep(self, msg: Rrep, from_node: int, now: float) -> list[tuple[object, int]]:
        # Forward route toward the answering destination.
        self._learn(msg.dest, from_node, msg.hop_count + 1, msg.dest_seq, now)
        if msg.origin == self.node_id:
            return []  # we asked; route installed, nothing to forward
        back = self.routes.get(msg.origin)
        if back is None or not back.valid or back.expires_at <= now:
            return []  # reverse route gone; RREP dies here
        fwd = Rrep(
            origin=msg.origin,
            dest=msg.dest,
            dest_seq=msg.dest_seq,
            hop_count=msg.hop_count + 1,
            lifetime=msg.lifetime,
        )
        self.control_tx += 1
        return [(fwd, back.next_hop)]

    def _on_rerr(self, msg: Rerr, from_node: int) -> list[tuple[object, int]]:
        entry = self.routes.get(msg.dest)
        if entry is not None and entry.valid and entry.next_hop == from_node:
            entry.valid = False
            entry.dest_seq = max(entry.dest_seq, msg.dest_seq)
            self.control_tx += 1
            return [(Rerr(dest=msg.dest, dest_seq=msg.dest_seq), BROADCAST)]
        return []

    # -- maintenance -------------------------------------------------------------

    def purge(self, now: float) -> None:
        """Drop expired routes (called opportunistically by the MAC)."""
        for dest in list(self.routes):
            if self.routes[dest].expires_at <= now:
                del self.routes[dest]

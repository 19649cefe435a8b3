"""Batch slot engine for the polling MAC (DESIGN.md §12).

The event-at-a-time PHY spends ~80% of a polling run executing the *same*
slot choreography over and over: head polls at ``t0``, the poll lands at
``t1 = t0 + airtime(poll)``, the polled senders turn around and transmit at
``t_tx = t1 + turnaround``, everything decodes at ``t2 = t_tx +
airtime(payload)``, and the slot pads out to ``slot_time``.  Nothing else
happens inside a *clean* slot — no fault event, no radio wake, no second
cluster — so the whole slot collapses into closed-form updates of
per-radio state banks.

This module implements that collapse in two parts.  The slot loop
(:meth:`VectorPhaseEngine._run_slot`) makes every decision the MAC can
see — who answers the poll, which frames decode, the random loss draws,
the handler calls, the PHY's per-kind counts — and logs only the slot's
start time and its group cache (and, on a lossy medium, whom each drawn
decode reached or garbled).  :meth:`VectorPhaseEngine._apply_log` then
folds up to ``_LOG_SLOTS`` logged slots into the bank in one pass, at
every flush and whenever the log fills.  The contract with the scalar
oracle (the untouched event path in :mod:`repro.radio`) is
**bit-identical floats**:

* every energy integration replays the exact per-radio ``change_state``
  sequence the event path would perform — the same ``(power * dt)``
  products added in the same chronological order, with ``dt`` always
  computed as the *difference of the actual event timestamps* (``t1 - t0``
  is not the poll airtime bit-for-bit!) and a radio's ``last_change``
  moving only when it changes state.  The apply forms four ``dt`` rows per
  slot (``t0``, ``t1``, ``t_tx``, ``t2``), with an exact ``0.0`` wherever
  a radio takes no step, and sums them down the time axis with
  :func:`row_sum`, so each meter gets the same rounded adds in the same
  order as one update per step;
* every summation the scalar path performs left-to-right (carrier-sense
  in-air power, accumulated SINR interference) is reproduced as an
  *ordered* sequence of elementwise adds (:func:`ordered_sum`), never a
  numpy reduction — ``np.add.reduce`` pairwise-reassociates and is the #1
  parity hazard;
* stochastic draws (frame-error RNG, Gilbert–Elliott per-link chains) are
  issued as the same scalar calls in the same candidate order the decode
  loop would make.

Clusters sharing a multi-cluster medium (``index_map``) run on the same
engine, with one per-slot check scoped to the cluster's channel and MAC
(:meth:`VectorPhaseEngine._clean`).  Slots that are *not* clean — a pending
fault/wake/battery event inside the slot window, a frame already in the air
on the channel, another cluster within carrier-sense reach — fall back to
the scalar path for exactly that slot: the engine applies its log and
flushes the bank to the live transceivers first, so mid-slot readers
(battery depletion checks) always see true meters.  A replayed slot adds
its frames to the medium's per-kind PHY counts exactly as the event path
would.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import TYPE_CHECKING

import numpy as np

from ..radio.energy import RadioState
from ..radio.packet import Frame, FrameType
from ..radio.transceiver import Transceiver
from ..sim.units import transmission_time
from ..topology.cluster import HEAD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pollmac import PollingClusterMac

__all__ = [
    "VectorRadioBank",
    "VectorPhaseEngine",
    "ordered_sum",
    "row_sum",
]

# Integer state codes for the bank arrays, in a fixed order.
SLEEP, IDLE, RX, TX = 0, 1, 2, 3
_STATES = (RadioState.SLEEP, RadioState.IDLE, RadioState.RX, RadioState.TX)
_CODE = {s: i for i, s in enumerate(_STATES)}

# Slots the log holds before _apply_log folds them into the bank.
_LOG_SLOTS = 64

# A radio's part in a slot's data exchange, as a group cache's role codes:
# it sends, it hears the data after taking part in the poll exchange (or is
# the head), or it hears the data without having heard the poll.
_SENDER, _LISTENER, _STRAGGLER = 1, 2, 3


def ordered_sum(columns):
    """Left-to-right elementwise sum of 1-D float arrays.

    Matches the scalar path's sequential ``total += x`` accumulation
    bit-for-bit: each add rounds exactly like the corresponding Python
    float add.  ``np.add.reduce`` / ``ndarray.sum`` must NOT be used here —
    their pairwise reassociation produces different last-bit results.
    Returns ``None`` for an empty sequence (the caller treats it as the
    scalar path's literal ``0``).
    """
    it = iter(columns)
    try:
        acc = next(it).copy()
    except StopIteration:
        return None
    for col in it:
        acc = acc + col
    return acc


def row_sum(rows: np.ndarray) -> np.ndarray:
    """Left-to-right sum of the rows of a 2-D float array.

    ``np.add.accumulate`` along axis 0 adds row ``k`` onto the running sum
    of rows ``0..k-1``, one IEEE add per element per row, so every column
    gets the rounding of a sequential ``total += x`` loop over its rows.
    A reduction (``np.add.reduce``, ``ndarray.sum``) promises no order and
    sums a contiguous axis pairwise, which rounds differently.
    """
    return np.add.accumulate(rows, axis=0)[-1]


class VectorRadioBank:
    """Array mirror of every transceiver's meter/listen/counter state.

    ``load()`` captures the live objects; slot replays mutate the arrays;
    ``store()`` writes the exact values back (python floats, so downstream
    ``float.hex()`` fingerprints are unchanged).  The power table is built
    once per bank from each radio's own :class:`EnergyParams`, so
    heterogeneous radios stay exact.
    """

    def __init__(self, transceivers):
        self.transceivers = list(transceivers)
        n = len(self.transceivers)
        self.ptab = np.empty((4, n), dtype=np.float64)
        for i, trx in enumerate(self.transceivers):
            p = trx.meter.params
            self.ptab[SLEEP, i] = p.sleep_w
            self.ptab[IDLE, i] = p.idle_w
            self.ptab[RX, i] = p.rx_w
            self.ptab[TX, i] = p.tx_w
        self.state = np.empty(n, dtype=np.int64)
        self.last_change = np.empty(n, dtype=np.float64)
        self.consumed = np.empty(n, dtype=np.float64)
        self.dwell = np.empty((4, n), dtype=np.float64)
        self.listening = np.empty(n, dtype=bool)  # from listen_since, at load
        self.frames_sent = np.empty(n, dtype=np.int64)
        self.frames_received = np.empty(n, dtype=np.int64)
        self.frames_garbled = np.empty(n, dtype=np.int64)
        # +inf marks "not listening" so the float view is total.
        self.listen_since = np.empty(n, dtype=np.float64)

    def load(self) -> None:
        for i, trx in enumerate(self.transceivers):
            m = trx.meter
            self.state[i] = _CODE[m.state]
            self.last_change[i] = m.last_change
            self.consumed[i] = m.consumed_j
            d = m.dwell_s
            self.dwell[SLEEP, i] = d[RadioState.SLEEP]
            self.dwell[IDLE, i] = d[RadioState.IDLE]
            self.dwell[RX, i] = d[RadioState.RX]
            self.dwell[TX, i] = d[RadioState.TX]
            ls = trx._listen_since
            self.listening[i] = ls is not None
            self.listen_since[i] = np.inf if ls is None else ls
            self.frames_sent[i] = trx.frames_sent
            self.frames_received[i] = trx.frames_received
            self.frames_garbled[i] = trx.frames_garbled

    def store(self) -> None:
        for i, trx in enumerate(self.transceivers):
            m = trx.meter
            m.state = _STATES[self.state[i]]
            m.last_change = float(self.last_change[i])
            m.consumed_j = float(self.consumed[i])
            d = m.dwell_s
            d[RadioState.SLEEP] = float(self.dwell[SLEEP, i])
            d[RadioState.IDLE] = float(self.dwell[IDLE, i])
            d[RadioState.RX] = float(self.dwell[RX, i])
            d[RadioState.TX] = float(self.dwell[TX, i])
            ls = self.listen_since[i]
            trx._listen_since = float(ls) if np.isfinite(ls) else None
            trx.frames_sent = int(self.frames_sent[i])
            trx.frames_received = int(self.frames_received[i])
            trx.frames_garbled = int(self.frames_garbled[i])


class _PollCache:
    """Static decode geometry of the head's poll broadcast."""

    __slots__ = ("ok_nodes", "ok", "n_coll", "polled", "counts")

    def __init__(self, flip, ok, coll, ok_nodes, head):
        self.ok_nodes = ok_nodes  # the radios that decode, in decode order
        self.ok = frozenset(ok_nodes)
        self.n_coll = int(coll.sum())
        # Radios whose last_change is t1 after the poll exchange: the
        # carrier-sense flip set plus the head.
        polled = flip.copy()
        polled[head] = True
        self.polled = polled
        # One poll's increments of frames sent, received and garbled.
        counts = np.zeros((3, flip.size), dtype=np.int16)
        counts[0, head] = 1
        counts[1] = ok
        counts[2] = coll
        self.counts = counts


class _GroupCache:
    """Static decode geometry for one set of concurrent data senders.

    ``role`` holds each radio's part in the exchange (``_SENDER``,
    ``_LISTENER``, ``_STRAGGLER`` or 0), ``counts`` its increments of frames
    sent, received and garbled, and ``records`` one ``(decoded mask, decoders
    in decode order, collision count)`` per sender in begin order; the mask
    is bytes, so ``mask[i]`` is 1 where radio ``i`` decodes.
    """

    __slots__ = ("role", "counts", "records")

    def __init__(self, role, counts, records):
        self.role = role
        self.counts = counts
        self.records = records


class _GeomEntry:
    """Cross-phase cache of poll/group geometry for one listening roster.

    Geometry depends only on the listening roster, the medium's
    ``rx_power`` matrix, and its (immutable) thresholds — not on payload
    size — so it outlives any single phase.  The entry pins the matrix it
    was built from: mobility epochs *replace* ``rx_power`` (never mutate
    it), so an identity check detects staleness exactly.  ``local`` is the
    PHY's block of that matrix, in local indices.  Channel drift is
    irrelevant here: it retunes the Gilbert–Elliott chains, which the slot
    replay consults live per draw.
    """

    __slots__ = ("rxp", "local", "pc", "groups")

    def __init__(self, rxp, index_map):
        self.rxp = rxp
        self.local = rxp if index_map is None else rxp[np.ix_(index_map, index_map)]
        self.pc: _PollCache | None = None
        self.groups: dict[tuple[int, ...], _GroupCache] = {}


class VectorPhaseEngine:
    """Executes clean polling slots as closed-form array updates.

    One engine instance serves one ``_run_phase`` call of a MAC built
    with ``engine="vector"``.  The radio bank is loaded lazily on the first
    clean slot.  Replayed slots are logged and applied to the bank in runs
    (:meth:`_apply_log`); the log is applied and the bank flushed back
    before any scalar-fallback slot and at phase end, so live readers
    always see true state whenever real events can fire.  A replayed slot
    keeps the radios' frame counters in the bank and calls the MAC's frame
    handlers directly, never a transceiver's ``deliver`` or
    ``deliver_garbled``, so a caller who needs every per-frame PHY callback
    runs ``engine="scalar"``.
    """

    def __init__(self, mac: "PollingClusterMac", payload_bytes: int):
        self.mac = mac
        self.phy = mac.phy
        self.sim = mac.sim
        self.medium = med = self.phy.medium
        self.tracer = med.tracer
        self.head = self.phy.head_index
        self.air_poll = transmission_time(mac.sizes.poll, med.bitrate)
        self.air_payload = transmission_time(payload_bytes, med.bitrate)
        self.turnaround = mac.timings.turnaround
        self.slot_time = mac._slot_time(payload_bytes)
        self.bank = VectorRadioBank(self.phy.transceivers)
        n = len(self.bank.transceivers)
        self._no_roles = np.zeros(n, dtype=np.int8)
        self._no_counts = np.zeros((3, n), dtype=np.int16)
        # Power of the state a radio leaves at each of a slot's four steps:
        # IDLE at t0, RX at t1 (the head: TX), IDLE at t_tx, RX at t2 (a
        # sender's TX is set per slot).
        ptab = self.bank.ptab
        self._step_power = ptab[[IDLE, RX, IDLE, RX]]
        self._step_power[1, self.head] = ptab[TX, self.head]
        self.loaded = False
        self.dynamic = med.frame_error_rate > 0.0 or med.link_loss is not None
        # Medium index of each local radio, and each one's rank in the
        # medium's decode order (registration order), which orders decode
        # side effects and random draws.
        index_map = self.phy.index_map
        if index_map is None:
            self.nodes = list(range(n))
            self._rank = None
        else:
            self.nodes = [int(g) for g in index_map]
            rank = {node: i for i, node in enumerate(med._transceivers)}
            self._rank = [rank[g] for g in self.nodes].__getitem__
        # Rule 7's reach past the slot end: no frame the polling MACs send is
        # longer than their largest frame plus a roster announcement of two
        # bytes per radio on the medium.
        self.air_max = transmission_time(
            max(astuple(mac.sizes)) + 2 * med.n_nodes, med.bitrate
        )
        # The channel scope of rules 2-7, rebuilt whenever the geometry or
        # the channel map changes (see _scope).
        self._scope_rxp = None
        self._scope_channels = b""
        # Geometry store shared across phases (lives on the MAC), keyed by
        # the listening-roster bytes; rebound at every bank load because
        # fallback slots can change the roster mid-phase.
        self._geom_store: dict[bytes, _GeomEntry] = mac._vector_geom
        self._entry: _GeomEntry | None = None
        self._poll_cache: _PollCache | None = None
        self._group_cache: dict[tuple[int, ...], _GroupCache] = {}
        # The slots replayed since the last apply, as (t0, group cache or
        # None), and on a lossy medium the radios each drawn decode reached
        # or garbled, in draw order.
        self._log: list[tuple[float, _GroupCache | None]] = []
        self._received: list[int] = []
        self._garbled: list[int] = []
        self.vector_slots = 0

    # -- lifecycle ---------------------------------------------------------------

    def try_slot(self, payload: dict, group) -> bool:
        """Run the slot starting now in vector mode if it is clean.

        Returns False (after flushing the bank) when the slot must take the
        scalar path (:meth:`_clean`).
        """
        sim = self.sim
        t0 = sim.now
        if not self._clean(t0 + self.slot_time):
            self.flush()
            return False
        if not self.loaded:
            self.bank.load()
            self._bind_caches()
            self.loaded = True
        self._run_slot(t0, payload, group)
        self.vector_slots += 1
        return True

    def _clean(self, t_end: float) -> bool:
        """The per-slot check: may the slot up to *t_end* run in closed form?

        Nothing outside the PHY may observe or touch the slot (DESIGN.md
        §12 gives the reasons):

        1. the MAC still polls over the PHY this engine was built for;
        2. every radio of the PHY is on the head's channel;
        3. no frame is in the air on that channel;
        4. the medium is not stale, when it has radios outside the PHY;
        5. no radio outside the PHY on that channel is in carrier-sense
           reach of the PHY's radios (:meth:`RadioMedium.in_cs_reach`, the
           test the channel coloring shares);
        6. no live event up to *t_end* is owned by a radio on that channel
           or by a MAC whose head is on it (on a lossy medium, no live event
           at all: every decode draws from its shared loss streams);
        7. no unowned event up to *t_end*, or up to ``air_max`` past it when
           the medium has radios on another channel.

        On a single-cluster medium the check is: one channel, nothing in the
        air, a quiet heap.
        """
        if self.mac.phy is not self.phy:
            return False
        med = self.medium
        if med.rx_power is not self._scope_rxp or (
            med.channels.tobytes() != self._scope_channels
        ):
            self._scope()
        if not self._scope_ok or (self._shared and med._stale):
            return False
        ch, channel_of = self._channel, self._channel_of
        for tx in med._active:
            if channel_of[tx.sender] == ch:
                return False
        if not self._mixed:
            return self.sim.quiet_until(t_end)
        # Decodes on any channel draw from the medium's shared loss streams,
        # so on a lossy medium every event in the window counts.
        touches = None if self.dynamic else self._touches
        return self.sim.quiet_until(t_end, touches, t_end + self.air_max)

    def _scope(self) -> None:
        """Rules 2 and 5 and the channel layout for the current geometry
        and channel map."""
        med = self.medium
        self._scope_rxp = med.rx_power
        self._scope_channels = med.channels.tobytes()
        channel_of = med.channels.tolist()
        nodes = self.nodes
        ch = channel_of[nodes[self.head]]
        inside = set(nodes)
        outside = [g for g in med._transceivers if g not in inside]
        near = [g for g in outside if channel_of[g] == ch]
        self._scope_ok = all(channel_of[g] == ch for g in nodes) and not (
            near and med.in_cs_reach(near, nodes)
        )
        self._channel = ch
        self._channel_of = channel_of
        self._shared = bool(outside)
        self._mixed = any(channel_of[g] != ch for g in med._transceivers)

    def _touches(self, owner) -> bool:
        """Whether an event owned by *owner* — a radio, or a MAC through its
        head — can touch this cluster's channel."""
        trx = owner if isinstance(owner, Transceiver) else owner.head_trx
        return self._channel_of[trx.node] == self._channel

    def flush(self) -> None:
        """Apply the slot log and write the bank back to the live
        transceivers (idempotent)."""
        if self.loaded:
            self._apply_log()
            self.bank.store()
            self.loaded = False

    # -- cache builders ----------------------------------------------------------

    def _bind_caches(self) -> None:
        key = self.bank.listening.tobytes()
        entry = self._geom_store.get(key)
        if entry is None or entry.rxp is not self.medium.rx_power:
            entry = _GeomEntry(self.medium.rx_power, self.phy.index_map)
            self._geom_store[key] = entry
        self._entry = entry
        self._poll_cache = entry.pc
        self._group_cache = entry.groups

    def _in_decode_order(self, idx: np.ndarray) -> list[int]:
        """Local radios *idx* in the order the medium decodes to them."""
        return sorted((int(x) for x in idx), key=self._rank)

    def _build_poll_cache(self) -> _PollCache:
        med = self.medium
        b = self.bank
        head = self.head
        sig = self._entry.local[:, head]
        listening = b.listening.copy()
        listening[head] = False  # half-duplex: the head is the sender
        flip = listening & (sig >= med.cs_threshold)
        audible = listening & (sig >= med.rx_sensitivity)
        # Sole frame in the air: interference is the scalar path's empty
        # sum (integer 0), so the capture threshold is beta * (noise + 0).
        coll = audible & (sig < med.beta * (med.noise + 0))
        ok = audible & ~coll
        cache = _PollCache(flip, ok, coll, self._in_decode_order(np.nonzero(ok)[0]), head)
        self._poll_cache = cache
        self._entry.pc = cache
        return cache

    def _build_group_cache(self, key: tuple[int, ...], pc: _PollCache) -> _GroupCache:
        med = self.medium
        b = self.bank
        rxp = self._entry.local
        smask = np.zeros(len(b.transceivers), dtype=bool)
        smask[list(key)] = True
        listen = b.listening & ~smask
        # Carrier sense: the final in-air power each listener compares
        # against cs is the left-to-right sum over senders in begin order.
        total = ordered_sum(rxp[:, s] for s in key)
        rx_flip = listen & (total >= med.cs_threshold)
        counts = np.zeros((3, smask.size), dtype=np.int16)
        counts[0] = smask
        records = []
        for sk in key:
            sig = rxp[:, sk]
            interf = ordered_sum(rxp[:, sj] for sj in key if sj != sk)
            if interf is None:
                thr = med.beta * (med.noise + 0)
            else:
                thr = med.beta * (med.noise + interf)
            audible = listen & (sig >= med.rx_sensitivity)
            coll = audible & (sig < thr)
            ok = audible & ~coll
            counts[1] += ok
            counts[2] += coll
            records.append(
                (ok.tobytes(), self._in_decode_order(np.nonzero(ok)[0]), int(coll.sum()))
            )
        # Listeners that took part in the poll exchange (or are the head)
        # enter the data exchange with last_change == t1; stragglers heard
        # the data but not the poll and enter with their own last_change.
        role = np.zeros(smask.size, dtype=np.int8)
        role[rx_flip & pc.polled] = _LISTENER
        role[rx_flip & ~pc.polled] = _STRAGGLER
        role[smask] = _SENDER
        gc = _GroupCache(role, counts, records)
        self._group_cache[key] = gc
        return gc

    # -- stochastic decode (frame errors / bursty links) -------------------------

    def _draw_outcomes(self, cand_nodes, sender: int, now: float):
        """Replay the decode loop's RNG draws for candidates, in order.

        Candidates already pass sensitivity/listen/SINR; the scalar decode
        demotes them to collisions via the shared frame-error RNG and the
        per-link Gilbert–Elliott chains (keyed by medium index), consulted
        in decode order.  Returns the candidates that decode and the number
        that collide, and logs both for the frame counters.
        """
        med = self.medium
        fer = med.frame_error_rate
        rng = med._error_rng
        link = med.link_loss
        nodes = self.nodes
        garbled = self._garbled
        before = len(garbled)
        ok: list[int] = []
        for node in cand_nodes:
            if fer > 0.0 and rng.random() < fer:
                garbled.append(node)
            elif link is not None and link.frame_fails(nodes[node], nodes[sender], now):
                garbled.append(node)
            else:
                ok.append(node)
        self._received += ok
        return ok, len(garbled) - before

    # -- the slot replay ---------------------------------------------------------

    def _run_slot(self, t0: float, payload: dict, group) -> None:
        head = self.head
        mac = self.mac
        dynamic = self.dynamic
        pc = self._poll_cache
        if pc is None:
            pc = self._build_poll_cache()
        t1 = t0 + self.air_poll

        # The poll: the head transmits at t0 and it decodes at t1.
        if dynamic:
            ok_nodes, n_bad = self._draw_outcomes(pc.ok_nodes, head, t1)
            n_bad += pc.n_coll
            polled = set(ok_nodes)
        else:
            ok_nodes, n_bad, polled = pc.ok_nodes, pc.n_coll, pc.ok
        n_ok = len(ok_nodes)

        # The group's senders that decoded the poll answer it, in decode
        # order.
        responses: list[tuple[int, Frame]] = []
        if group:
            sensors = mac.sensors
            for node in sorted({tx.sender for tx in group}, key=self._rank):
                if node in polled:
                    frame = sensors[node].build_response(payload)
                    if frame is not None:
                        responses.append((node, frame))
        gc = None
        if responses:
            # Every responder transmits at t_tx; each record decodes at t2
            # in begin order, and deliveries apply to the addressed
            # receiver (and the head, which overhears everything).
            t_tx = t1 + self.turnaround
            t2 = t_tx + self.air_payload
            key = tuple(node for node, _ in responses)
            gc = self._group_cache.get(key)
            if gc is None:
                gc = self._build_group_cache(key, pc)
            for (node_k, frame_k), (ok_mask, ok_list, n_coll) in zip(responses, gc.records):
                if dynamic:
                    ok_list, extra = self._draw_outcomes(ok_list, node_k, t2)
                    n_coll += extra
                    decoded = set(ok_list).__contains__
                else:
                    decoded = ok_mask.__getitem__
                n_ok += len(ok_list)
                n_bad += n_coll
                rcv = frame_k.payload["instruction"].receiver
                if rcv == HEAD:
                    if decoded(head):
                        mac._head_receive(frame_k, t2)
                elif decoded(rcv):
                    agent = mac.sensors[rcv]
                    if frame_k.ftype is FrameType.DATA:
                        agent._on_data(frame_k.payload)
                    else:
                        agent._on_ack(frame_k.payload)
                if frame_k.ftype is FrameType.DATA:
                    mac.sensors[node_k].packets_sent += 1

        # The PHY's per-kind counts: the poll and each response start and
        # end in the slot.
        counts = self.tracer.counts
        n_tx = 1 + len(responses)
        counts["phy_tx_start"] += n_tx
        counts["phy_tx_end"] += n_tx
        if n_ok:
            counts["phy_rx_ok"] += n_ok
        if n_bad:
            counts["phy_rx_collision"] += n_bad
        self._log_slot(t0, gc)

    def _log_slot(self, t0: float, gc: _GroupCache | None) -> None:
        """Log a replayed slot; apply the log once it holds ``_LOG_SLOTS``."""
        log = self._log
        log.append((t0, gc))
        if len(log) == _LOG_SLOTS:
            self._apply_log()

    def _apply_log(self) -> None:
        """Fold the logged slots into the bank in one pass.

        A slot moves a radio through at most four meter steps, each the
        end of a stay in one state:

        ======  ==========================  ===========================
        step    radios                      state left
        ======  ==========================  ===========================
        t0      the polled ones, head too   IDLE
        t1      the polled ones, head too   RX (the head: TX)
        t_tx    the data exchange's         IDLE
        t2      the data exchange's         TX (senders), RX (the rest)
        ======  ==========================  ===========================

        The pass forms one dt row per step and slot, with an exact ``0.0``
        wherever a radio takes no step, so adding it changes nothing.  It
        sums ``consumed`` and each ``dwell`` state down the time axis with
        :func:`row_sum`: every meter gets the adds, in the order, that one
        update per step would make.  A radio's ``last_change`` before a slot
        is the latest time an earlier slot touched it, a running maximum;
        a straggler's t_tx step starts there.
        """
        log = self._log
        if not log:
            return
        b = self.bank
        pc = self._poll_cache
        head = self.head
        n_slots, n = len(log), len(b.transceivers)
        col = np.newaxis
        # The slot times, by the same float adds _run_slot makes.
        t0 = np.array([t for t, _ in log])
        t1 = t0 + self.air_poll
        t_tx = t1 + self.turnaround
        t2 = t_tx + self.air_payload
        gcs = [gc for _, gc in log]
        roles = np.array([self._no_roles if gc is None else gc.role for gc in gcs])
        polled = pc.polled
        touched = roles > 0
        sender = roles == _SENDER
        lc = np.empty((n_slots + 1, n))
        lc[0] = b.last_change
        lc[1:] = np.where(touched, t2[:, col], np.where(polled, t1[:, col], -np.inf))
        np.maximum.accumulate(lc, axis=0, out=lc)
        before = lc[:-1]
        dt = np.empty((n_slots, 4, n))
        dt[:, 0] = np.where(polled, t0[:, col] - before, 0.0)
        dt[:, 1] = np.where(polled, (t1 - t0)[:, col], 0.0)
        dt[:, 2] = np.where(
            roles == _STRAGGLER,
            t_tx[:, col] - before,
            np.where(touched, (t_tx - t1)[:, col], 0.0),
        )
        dt[:, 3] = np.where(touched, (t2 - t_tx)[:, col], 0.0)
        # consumed: the power of the state left times dt, four steps a slot.
        rows = np.empty((4 * n_slots + 1, n))
        rows[0] = b.consumed
        steps = rows[1:].reshape(n_slots, 4, n)
        np.multiply(dt, self._step_power, out=steps)
        np.multiply(dt[:, 3], b.ptab[TX], out=steps[:, 3], where=sender)
        b.consumed[:] = row_sum(rows)
        # dwell: IDLE is left at t0 and t_tx, RX or TX at t1 and t2.
        rows = np.empty((2 * n_slots + 1, n))
        steps = rows[1:].reshape(n_slots, 2, n)
        rows[0] = b.dwell[IDLE]
        steps[:] = dt[:, 0::2]
        b.dwell[IDLE] = row_sum(rows)
        rows[0] = b.dwell[RX]
        steps[:] = dt[:, 1::2]
        steps[:, 0, head] = 0.0
        np.copyto(steps[:, 1], 0.0, where=sender)
        b.dwell[RX] = row_sum(rows)
        rows[0] = b.dwell[TX]
        steps.fill(0.0)
        steps[:, 0, head] = dt[:, 1, head]
        np.copyto(steps[:, 1], dt[:, 3], where=sender)
        b.dwell[TX] = row_sum(rows)
        b.last_change[:] = lc[-1]
        # The head listens again from each poll's end, a sender from its
        # frame's end.
        sent = np.where(sender, t2[:, col], -np.inf).max(axis=0)
        np.copyto(b.listen_since, sent, where=sent > -np.inf)
        b.listen_since[head] = t1[-1]
        # Frame counters: the caches' increments, with the drawn decodes in
        # place of the static ones on a lossy medium.
        inc = np.array([self._no_counts if gc is None else gc.counts for gc in gcs])
        inc = inc.sum(axis=0, dtype=np.int64) + n_slots * pc.counts
        if self.dynamic:
            inc[1] = np.bincount(np.array(self._received, dtype=np.intp), minlength=n)
            inc[2] += np.bincount(np.array(self._garbled, dtype=np.intp), minlength=n)
            self._received.clear()
            self._garbled.clear()
        b.frames_sent += inc[0]
        b.frames_received += inc[1]
        b.frames_garbled += inc[2]
        log.clear()

"""Vectorized batch slot engine for the polling MAC (DESIGN.md §12).

The event-at-a-time PHY spends ~80% of a polling run executing the *same*
slot choreography over and over: head polls at ``t0``, the poll lands at
``t1 = t0 + airtime(poll)``, the polled senders turn around and transmit at
``t_tx = t1 + turnaround``, everything decodes at ``t2 = t_tx +
airtime(payload)``, and the slot pads out to ``slot_time``.  Nothing else
happens inside a *clean* slot — no fault event, no radio wake, no second
cluster — so the whole slot collapses into a handful of closed-form numpy
array updates over per-radio state banks.

This module implements that collapse.  The contract with the scalar oracle
(the untouched event path in :mod:`repro.radio`) is **bit-identical floats**:

* every energy integration replays the exact per-radio ``change_state``
  sequence the event path would perform — the same ``(power * dt)``
  products added in the same chronological order, with ``dt`` always
  computed as the *difference of the actual event timestamps* (``t1 - t0``
  is not the poll airtime bit-for-bit!), and radios whose state never
  changes keep their old ``last_change`` untouched;
* every summation the scalar path performs left-to-right (carrier-sense
  in-air power, accumulated SINR interference) is reproduced as an
  *ordered* sequence of elementwise adds (:func:`ordered_sum`), never a
  numpy reduction — ``np.add.reduce`` pairwise-reassociates and is the #1
  parity hazard;
* stochastic draws (frame-error RNG, Gilbert–Elliott per-link chains) are
  issued as the same scalar calls in the same candidate order the decode
  loop would make.

Two observations keep the per-slot op count low without breaking the
contract: a clean slot starts and ends with every touched radio IDLE, so
the bank's state codes never need intermediate writes; and after the ``t0``
flip every touched radio shares the same ``last_change``, so the ``t1`` /
``t_tx`` / ``t2`` integrations use one *scalar* ``dt`` against cached
per-radio power slices (one multiply + one fancy-indexed add each), with
``last_change`` written back just twice per slot.

Clusters sharing a multi-cluster medium (``index_map``) run on the same
engine, with one per-slot check scoped to the cluster's channel and MAC
(:meth:`VectorPhaseEngine._clean`).  Slots that are *not* clean — a pending
fault/wake/battery event inside the slot window, a frame already in the air
on the channel, another cluster within carrier-sense reach — fall back to
the scalar path for exactly that slot: the bank
flushes to the live transceivers first, so mid-slot readers (battery
depletion checks) always see true meters.  A replayed slot adds its frames
to the medium's per-kind PHY counts exactly as the event path would.
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
]

# Integer state codes for the bank arrays, in a fixed order.
SLEEP, IDLE, RX, TX = 0, 1, 2, 3
_STATES = (RadioState.SLEEP, RadioState.IDLE, RadioState.RX, RadioState.TX)
_CODE = {s: i for i, s in enumerate(_STATES)}


def _as_index(idx: np.ndarray):
    """Basic-slice form of a sorted index array when it is contiguous.

    Basic slicing skips numpy's fancy-index machinery (a large fraction of
    per-slot overhead: the poll flip set is usually *all* sensors).  The
    arithmetic is unchanged — the same elements see the same elementwise
    ops — so bit-exactness is unaffected.
    """
    if idx.size > 1 and int(idx[-1]) - int(idx[0]) + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


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
        self.listening = np.empty(n, dtype=bool)
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
            self.listening[i] = trx._listening
            ls = trx._listen_since
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
            listening = bool(self.listening[i])
            trx._listening = listening
            ls = self.listen_since[i]
            trx._listen_since = float(ls) if np.isfinite(ls) else None
            trx.frames_sent = int(self.frames_sent[i])
            trx.frames_received = int(self.frames_received[i])
            trx.frames_garbled = int(self.frames_garbled[i])


class _PollCache:
    """Static decode geometry of the head's poll broadcast."""

    __slots__ = (
        "rx_ix",
        "ok_ix",
        "ok_nodes",
        "coll_idx",
        "n_coll",
        "pw_idle",
        "pw_rx",
        "mask_t1",
    )

    def __init__(self, rx_idx, ok_idx, ok_nodes, coll_idx, ptab, head, n):
        self.rx_ix = _as_index(rx_idx)
        self.ok_ix = _as_index(ok_idx)
        self.ok_nodes = ok_nodes
        self.coll_idx = coll_idx
        self.n_coll = len(coll_idx)
        # Power slices for the two poll-side integrations (IDLE over
        # [last_change, t0], RX over [t0, t1]).
        self.pw_idle = ptab[IDLE, rx_idx]
        self.pw_rx = ptab[RX, rx_idx]
        # Radios whose last_change is t1 right after the poll exchange: the
        # flip set plus the head.  Group caches use this to tell constant-dt
        # data listeners from stragglers that missed the poll.
        mask = np.zeros(n, dtype=bool)
        mask[rx_idx] = True
        mask[head] = True
        self.mask_t1 = mask


class _GroupCache:
    """Static decode geometry for one set of concurrent data senders."""

    __slots__ = (
        "s_ix",
        "rx_ix",
        "n_rx",
        "rx_c_ix",
        "n_c",
        "rx_v_ix",
        "n_v",
        "t2_ix",
        "pw_s_idle",
        "pw_s_tx",
        "pw_c_idle",
        "pw_v_idle",
        "pw_rx",
        "records",
    )


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
    clean slot and flushed back before any scalar-fallback slot and at
    phase end, so live readers always see true state whenever real events
    can fire.  A replayed slot keeps the radios' frame counters in the bank
    and calls the MAC's frame handlers directly, never a transceiver's
    ``deliver`` or ``deliver_garbled``, so a caller who needs every
    per-frame PHY callback runs ``engine="scalar"``.
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
        self.head_idle_w = float(self.bank.ptab[IDLE, self.head])
        self.head_tx_w = float(self.bank.ptab[TX, self.head])
        self.loaded = False
        self.dynamic = med.frame_error_rate > 0.0 or med.link_loss is not None
        # Medium index of each local radio, and each one's rank in the
        # medium's decode order (registration order), which orders decode
        # side effects and random draws.
        index_map = self.phy.index_map
        if index_map is None:
            self.nodes = list(range(len(self.bank.transceivers)))
        else:
            self.nodes = [int(g) for g in index_map]
            rank = {node: i for i, node in enumerate(med._transceivers)}
            self._decode_rank = [rank[g] for g in self.nodes]
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
        5. no radio outside the PHY on that channel can reach carrier sense
           from the summed receive power of the PHY's radios;
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
            near and self._overheard(near)
        )
        self._channel = ch
        self._channel_of = channel_of
        self._shared = bool(outside)
        self._mixed = any(channel_of[g] != ch for g in med._transceivers)

    def _overheard(self, near: list[int]) -> bool:
        """Rule 5: can a radio in *near* (outside the PHY, on its channel)
        reach carrier sense from the summed power of the PHY's radios?

        The sum over every radio of the PHY bounds any in-air sum a slot can
        put there, listening or not; the margin covers summation order.
        """
        med = self.medium
        heard = med.rx_power[np.ix_(near, self.nodes)].sum(axis=1)
        return bool(np.any(heard >= med.cs_threshold * (1.0 - 1e-9)))

    def _touches(self, owner) -> bool:
        """Whether an event owned by *owner* — a radio, or a MAC through its
        head — can touch this cluster's channel."""
        trx = owner if isinstance(owner, Transceiver) else owner.head_trx
        return self._channel_of[trx.node] == self._channel

    def flush(self) -> None:
        """Write the bank back to the live transceivers (idempotent)."""
        if self.loaded:
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
        nodes = [int(x) for x in idx]
        if self.phy.index_map is not None:
            nodes.sort(key=self._decode_rank.__getitem__)
        return nodes

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
        ok_idx = np.nonzero(ok)[0]
        cache = _PollCache(
            rx_idx=np.nonzero(flip)[0],
            ok_idx=ok_idx,
            ok_nodes=self._in_decode_order(ok_idx),
            coll_idx=np.nonzero(coll)[0],
            ptab=b.ptab,
            head=head,
            n=len(b.transceivers),
        )
        self._poll_cache = cache
        self._entry.pc = cache
        return cache

    def _build_group_cache(self, key: tuple[int, ...], pc: _PollCache) -> _GroupCache:
        med = self.medium
        b = self.bank
        rxp = self._entry.local
        n = len(b.transceivers)
        smask = np.zeros(n, dtype=bool)
        sender_idx = np.array(key, dtype=np.int64)
        smask[sender_idx] = True
        listen = b.listening & ~smask
        # Carrier sense: the final in-air power each listener compares
        # against cs is the left-to-right sum over senders in begin order.
        total = ordered_sum(rxp[:, s] for s in key)
        rx_flip = listen & (total >= med.cs_threshold)
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
            ok_idx = np.nonzero(ok)[0]
            records.append(
                (ok, _as_index(ok_idx), self._in_decode_order(ok_idx), np.nonzero(coll)[0])
            )
        gc = _GroupCache()
        gc.s_ix = _as_index(sender_idx)
        rx_idx = np.nonzero(rx_flip)[0]
        gc.rx_ix = _as_index(rx_idx)
        gc.n_rx = len(rx_idx)
        # Listeners that took part in the poll exchange (or are the head)
        # have last_change == t1 at t_tx: their IDLE integration uses the
        # shared scalar dt.  The rest (heard the data but not the poll)
        # integrate against their own last_change.
        rx_c = rx_flip & pc.mask_t1
        rx_v = rx_flip & ~pc.mask_t1
        rx_c_idx = np.nonzero(rx_c)[0]
        rx_v_idx = np.nonzero(rx_v)[0]
        gc.rx_c_ix = _as_index(rx_c_idx)
        gc.n_c = len(rx_c_idx)
        gc.rx_v_ix = _as_index(rx_v_idx)
        gc.n_v = len(rx_v_idx)
        # Only ever used for scalar assignment (lc[...] = t2), so sorting
        # for the contiguity check is safe.
        gc.t2_ix = _as_index(np.sort(np.concatenate([sender_idx, rx_idx])))
        ptab = b.ptab
        gc.pw_s_idle = ptab[IDLE, sender_idx]
        gc.pw_s_tx = ptab[TX, sender_idx]
        gc.pw_c_idle = ptab[IDLE, rx_c_idx]
        gc.pw_v_idle = ptab[IDLE, rx_v_idx]
        gc.pw_rx = ptab[RX, rx_idx]
        gc.records = records
        self._group_cache[key] = gc
        return gc

    # -- stochastic decode (frame errors / bursty links) -------------------------

    def _draw_outcomes(self, cand_nodes, sender: int, now: float):
        """Replay the decode loop's RNG draws for candidates, in order.

        Candidates already pass sensitivity/listen/SINR; the scalar decode
        demotes them to collisions via the shared frame-error RNG and the
        per-link Gilbert–Elliott chains (keyed by medium index), consulted
        in decode order.
        """
        med = self.medium
        fer = med.frame_error_rate
        rng = med._error_rng
        link = med.link_loss
        nodes = self.nodes
        ok: list[int] = []
        coll: list[int] = []
        for node in cand_nodes:
            if fer > 0.0 and rng.random() < fer:
                coll.append(node)
            elif link is not None and link.frame_fails(nodes[node], nodes[sender], now):
                coll.append(node)
            else:
                ok.append(node)
        return ok, coll

    # -- the slot replay ---------------------------------------------------------

    def _run_slot(self, t0: float, payload: dict, group) -> None:
        b = self.bank
        counts = self.tracer.counts
        head = self.head
        mac = self.mac
        consumed = b.consumed
        dwell = b.dwell
        lc = b.last_change
        pc = self._poll_cache
        if pc is None:
            pc = self._build_poll_cache()
        rx1 = pc.rx_ix
        t1 = t0 + self.air_poll

        # t0: head IDLE->TX, poll-audible listeners IDLE->RX.  Only this
        # integration has per-radio dt (listeners enter the slot with
        # different last_change values); everything later shares scalar dts.
        dt0 = t0 - lc[rx1]
        consumed[rx1] += pc.pw_idle * dt0
        dwell[IDLE][rx1] += dt0
        h_dt = t0 - lc[head]
        consumed[head] += self.head_idle_w * h_dt
        dwell[IDLE, head] += h_dt
        b.frames_sent[head] += 1
        counts["phy_tx_start"] += 1

        # t1: poll decodes; listeners flip back to IDLE, head resumes
        # listening.  dt is the *timestamp difference* t1 - t0 (not the
        # airtime constant — (t0 + a) - t0 != a in floating point).
        dt1 = t1 - t0
        consumed[rx1] += pc.pw_rx * dt1
        dwell[RX][rx1] += dt1
        consumed[head] += self.head_tx_w * dt1
        dwell[TX, head] += dt1
        counts["phy_tx_end"] += 1
        if self.dynamic:
            ok_nodes, extra_coll = self._draw_outcomes(pc.ok_nodes, head, t1)
            n_coll = pc.n_coll + len(extra_coll)
            if ok_nodes:
                b.frames_received[np.array(ok_nodes, dtype=np.int64)] += 1
            if extra_coll:
                b.frames_garbled[np.array(extra_coll, dtype=np.int64)] += 1
        else:
            ok_nodes = pc.ok_nodes
            n_coll = pc.n_coll
            if ok_nodes:
                b.frames_received[pc.ok_ix] += 1
        if pc.n_coll:
            b.frames_garbled[pc.coll_idx] += 1
        if ok_nodes:
            counts["phy_rx_ok"] += len(ok_nodes)
        if n_coll:
            counts["phy_rx_collision"] += n_coll

        responses: list[tuple[int, Frame]] = []
        if group:
            senders = {tx.sender for tx in group}
            sensors = mac.sensors
            for node in ok_nodes:
                if node in senders:
                    frame = sensors[node].build_response(payload)
                    if frame is not None:
                        responses.append((node, frame))
        if not responses:
            lc[rx1] = t1
            lc[head] = t1
            b.listen_since[head] = t1
            return

        # t_tx: every responder transmits simultaneously (begin order =
        # node order); carrier-sensing listeners flip IDLE -> RX.
        t_tx = t1 + self.turnaround
        t2 = t_tx + self.air_payload
        key = tuple(x for x, _ in responses)
        gc = self._group_cache.get(key)
        if gc is None:
            gc = self._build_group_cache(key, pc)
        sidx = gc.s_ix
        dtt = t_tx - t1
        consumed[sidx] += gc.pw_s_idle * dtt
        dwell[IDLE][sidx] += dtt
        if gc.n_c:
            consumed[gc.rx_c_ix] += gc.pw_c_idle * dtt
            dwell[IDLE][gc.rx_c_ix] += dtt
        if gc.n_v:
            dtv = t_tx - lc[gc.rx_v_ix]
            consumed[gc.rx_v_ix] += gc.pw_v_idle * dtv
            dwell[IDLE][gc.rx_v_ix] += dtv
        b.frames_sent[sidx] += 1
        counts["phy_tx_start"] += len(responses)

        # t2: each record decodes in begin order; deliveries apply to the
        # addressed receiver (and the head, which overhears everything).
        recs = gc.records
        for k, (node_k, frame_k) in enumerate(responses):
            ok_mask, ok_ix, ok_list, coll_idx = recs[k]
            counts["phy_tx_end"] += 1
            if self.dynamic:
                ok_list, extra_coll = self._draw_outcomes(ok_list, node_k, t2)
                n_coll = len(coll_idx) + len(extra_coll)
                if ok_list:
                    b.frames_received[np.array(ok_list, dtype=np.int64)] += 1
                if extra_coll:
                    b.frames_garbled[np.array(extra_coll, dtype=np.int64)] += 1
                ok_set = set(ok_list)
                head_ok = head in ok_set
            else:
                n_coll = len(coll_idx)
                if ok_list:
                    b.frames_received[ok_ix] += 1
                ok_set = None
                head_ok = bool(ok_mask[head])
            if len(coll_idx):
                b.frames_garbled[coll_idx] += 1
            if ok_list:
                counts["phy_rx_ok"] += len(ok_list)
            if n_coll:
                counts["phy_rx_collision"] += n_coll
            ins = frame_k.payload["instruction"]
            rcv = ins.receiver
            if rcv == HEAD:
                if head_ok:
                    mac._head_receive(frame_k, t2)
            else:
                if (rcv in ok_set) if ok_set is not None else bool(ok_mask[rcv]):
                    agent = mac.sensors[rcv]
                    if frame_k.ftype is FrameType.DATA:
                        agent._on_data(frame_k.payload)
                    else:
                        agent._on_ack(frame_k.payload)
            if frame_k.ftype is FrameType.DATA:
                mac.sensors[node_k].packets_sent += 1

        # t2 energy: senders integrate TX, listeners RX; everyone ends the
        # slot idle.  last_change lands at t1 for poll-only participants and
        # t2 for the data participants (senders + data listeners).
        dtp = t2 - t_tx
        consumed[sidx] += gc.pw_s_tx * dtp
        dwell[TX][sidx] += dtp
        if gc.n_rx:
            rx2 = gc.rx_ix
            consumed[rx2] += gc.pw_rx * dtp
            dwell[RX][rx2] += dtp
        lc[rx1] = t1
        lc[head] = t1
        b.listen_since[head] = t1
        lc[gc.t2_ix] = t2
        b.listen_since[sidx] = t2


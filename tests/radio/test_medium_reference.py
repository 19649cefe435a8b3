"""The channel-scoped medium against an unscoped reference medium.

``ReferenceMedium`` keeps the medium's two per-frame loops unscoped: every
transmission start and end re-evaluates RX/IDLE at every registered radio,
and every frame is decoded at every registered radio.  Seeded random scenarios
on three channels (overlapping frames, listener and sender retunes and
moves while frames are in the air, sleep/wake, stuns, crashes, replies sent
from inside the decode loop, random frame errors and Gilbert–Elliott fades)
must leave every energy float, dwell time, frame counter and delivery of
the shipped medium bit-identical to the reference.
"""

from collections import Counter

import numpy as np
import pytest

from repro.faults.gilbert import GilbertElliottLoss
from repro.radio import Frame, FrameType, RadioMedium, Transceiver, TwoRayGround
from repro.sim import Simulator

N_RADIOS = 12
N_LATE = 2  # the last radios register mid-scenario
N_CHANNELS = 3
FIELD_M = 120.0  # decode range ~50 m, carrier-sense range ~95 m
HORIZON_S = 0.25
SEEDS = range(12)
NODE_ACTIONS = {"tx", "retune", "sleep", "wake", "stun", "fail"}


class ReferenceMedium(RadioMedium):
    """Unscoped refresh and decode loops."""

    def _refresh_rx_states(self, sender: int) -> None:
        for trx in self._transceivers.values():
            trx._refresh_rx_state()

    def _end_transmission(self, record) -> None:
        self._active.remove(record)
        self.tracer.count("phy_tx_end")
        for node, trx in self._transceivers.items():
            if node == record.sender:
                continue
            outcome = self._reference_outcome(node, record, trx)
            if outcome == "ok":
                self.tracer.count("phy_rx_ok")
                trx.deliver(record.frame, float(self.rx_power[node, record.sender]))
            elif outcome == "collision":
                self.tracer.count("phy_rx_collision")
                trx.deliver_garbled(record.frame)
        self._refresh_rx_states(record.sender)

    def _reference_outcome(self, node, record, trx) -> str:
        channels = self.channels
        if channels[node] != channels[record.sender]:
            return "inaudible"
        signal = float(self.rx_power[node, record.sender])
        if signal < self.rx_sensitivity:
            return "inaudible"
        if not trx.listened_through(record.start, record.end):
            return "inaudible"
        interference = sum(
            float(self.rx_power[node, other.sender])
            for other in record.interferers
            if other.sender != node and channels[other.sender] == channels[node]
        )
        if signal < self.beta * (self.noise + interference):
            return "collision"
        if self.frame_error_rate > 0.0 and self._error_rng.random() < self.frame_error_rate:
            return "collision"
        if self.link_loss is not None and self.link_loss.frame_fails(
            node, record.sender, self.sim.now
        ):
            return "collision"
        return "ok"


def _scenario(seed: int):
    """Initial geometry and channels plus a time-sorted action list."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, FIELD_M, size=(N_RADIOS, 2))
    channels = [int(c) for c in rng.integers(0, N_CHANNELS, size=N_RADIOS)]
    actions = []

    def add(count, kind, make_args):
        for _ in range(count):
            actions.append((float(rng.uniform(0.0, HORIZON_S)), kind, make_args()))

    def node():
        return int(rng.integers(N_RADIOS))

    def channel():
        return int(rng.integers(N_CHANNELS))

    add(140, "tx", lambda: (node(), int(rng.integers(12, 121))))
    add(16, "retune", lambda: (node(), channel()))
    add(10, "retune_sender", lambda: (channel(),))
    add(8, "move", lambda: (rng.normal(0.0, 30.0, size=(N_RADIOS, 2)),))
    add(10, "sleep", lambda: (node(),))
    add(16, "wake", lambda: (node(),))
    add(4, "stun", lambda: (node(), float(rng.uniform(1e-3, 2e-2))))
    add(1, "fail", lambda: (node(),))
    for _ in range(N_LATE):
        actions.append((float(rng.uniform(0.0, HORIZON_S / 2)), "join", ()))
    actions.sort(key=lambda a: a[0])
    return positions, channels, actions


def _drive(medium_cls, seed: int):
    """Run one scenario on a fresh medium; returns (observation, coverage)."""
    positions, channels, actions = _scenario(seed)
    noisy = seed % 2 == 0
    sim = Simulator()
    medium = medium_cls(
        sim=sim,
        positions=positions,
        tx_power_w=np.full(N_RADIOS, 1e-2),
        propagation=TwoRayGround(ht=0.3, hr=0.3),
        frame_error_rate=0.15 if noisy else 0.0,
        error_seed=seed,
    )
    if noisy:
        medium.link_loss = GilbertElliottLoss(
            p_good_to_bad=0.2, p_bad_to_good=0.3, loss_bad=0.7, coherence_s=5e-3, seed=seed
        )
    for i, c in enumerate(channels):
        medium.set_channel(i, c)
    trxs = [Transceiver(sim, medium, i) for i in range(N_RADIOS - N_LATE)]
    log = []
    coverage = Counter()

    def can_send(t):
        return not (t.is_sleeping or t.is_transmitting)

    def send(i, size):
        trxs[i].transmit(Frame(ftype=FrameType.DATA, src=i, dst=-1, size_bytes=size))

    def on_receive(i):
        def receive(frame, power):
            log.append(
                (float.hex(sim.now), i, "ok", frame.src, frame.size_bytes, float.hex(power))
            )
            # Some receptions answer at once: a transmission that starts
            # inside the decode loop of the frame that triggered it.
            if (frame.size_bytes + i) % 5 == 0 and can_send(trxs[i]):
                coverage["nested_reply"] += 1
                send(i, 12)

        return receive

    def on_garbled(i, count):
        # The medium calls deliver_garbled through the radio instance, so
        # an instance attribute wraps it.
        def garbled(frame):
            count(frame)
            log.append((float.hex(sim.now), i, "garbled", frame.src, frame.size_bytes))

        return garbled

    def attach(i):
        t = trxs[i]
        t.on_receive(on_receive(i))
        t.deliver_garbled = on_garbled(i, t.deliver_garbled)

    for i in range(len(trxs)):
        attach(i)

    def act(kind, args):
        in_air = bool(medium._active)
        if kind in NODE_ACTIONS and args[0] >= len(trxs):
            return  # a late radio that has not registered yet
        if kind == "join":
            coverage["join_in_air"] += in_air
            trxs.append(Transceiver(sim, medium, len(trxs)))
            attach(len(trxs) - 1)
        elif kind == "tx":
            i, size = args
            if can_send(trxs[i]):
                send(i, size)
        elif kind == "retune":
            i, c = args
            coverage["retune_listener_in_air"] += in_air and not trxs[i].is_transmitting
            medium.set_channel(i, c)
        elif kind == "retune_sender":
            if in_air:
                coverage["retune_sender_in_air"] += 1
                medium.set_channel(medium._active[0].sender, args[0])
        elif kind == "move":
            coverage["move_in_air"] += in_air
            moved = np.clip(medium.positions + args[0], 0.0, FIELD_M)
            medium.update_positions(moved)
        elif kind == "sleep":
            if not trxs[args[0]].is_transmitting:
                trxs[args[0]].sleep()
        elif kind == "wake":
            trxs[args[0]].wake()
        elif kind == "stun":
            trxs[args[0]].stun(args[1])
        elif kind == "fail":
            trxs[args[0]].fail()

    for t, kind, args in actions:
        sim.at(t, act, kind, args)
    sim.run()
    for t in trxs:
        t.finalize()
    radios = [
        (
            float.hex(t.meter.consumed_j),
            [(s.value, float.hex(v)) for s, v in t.meter.dwell_s.items()],
            t.frames_sent,
            t.frames_received,
            t.frames_garbled,
        )
        for t in trxs
    ]
    coverage["received"] = sum(t.frames_received for t in trxs)
    coverage["garbled"] = sum(t.frames_garbled for t in trxs)
    return (radios, log, dict(medium.tracer.counts)), coverage


@pytest.mark.parametrize("seed", SEEDS)
def test_scoped_medium_matches_unscoped_reference(seed):
    shipped, _ = _drive(RadioMedium, seed)
    reference, _ = _drive(ReferenceMedium, seed)
    radios, log, counts = shipped
    ref_radios, ref_log, ref_counts = reference
    for node, (got, want) in enumerate(zip(radios, ref_radios)):
        assert got == want, f"seed {seed}: radio {node} diverged"
    assert log == ref_log
    assert counts == ref_counts


def test_reference_scenarios_exercise_every_hazard():
    total = Counter()
    for seed in SEEDS:
        total.update(_drive(RadioMedium, seed)[1])
    for hazard in (
        "nested_reply",
        "retune_listener_in_air",
        "retune_sender_in_air",
        "move_in_air",
        "join_in_air",
        "received",
        "garbled",
    ):
        assert total[hazard] > 0, hazard

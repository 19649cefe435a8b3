"""Tests for the shared medium and the half-duplex transceiver."""

import numpy as np
import pytest

from repro.radio import (
    BROADCAST_ADDR,
    Frame,
    FrameType,
    RadioError,
    RadioMedium,
    RadioState,
    Transceiver,
    TwoRayGround,
)
from repro.sim import Simulator


def make_medium(
    positions,
    sim=None,
    tx_power=1e-2,  # ~45 m range under the 0.3 m-antenna ground model
    frame_error_rate=0.0,
    beta=10.0,
):
    sim = sim or Simulator()
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    medium = RadioMedium(
        sim=sim,
        positions=positions,
        tx_power_w=np.full(n, tx_power),
        propagation=TwoRayGround(ht=0.3, hr=0.3),
        bitrate_bps=200_000.0,
        rx_sensitivity_w=1e-11,
        capture_beta=beta,
        frame_error_rate=frame_error_rate,
    )
    trx = [Transceiver(sim, medium, i) for i in range(n)]
    return sim, medium, trx


def data_frame(src, dst=BROADCAST_ADDR, size=80):
    return Frame(ftype=FrameType.DATA, src=src, dst=dst, size_bytes=size)


def collect(trx):
    inbox = []
    trx.on_receive(lambda frame, p: inbox.append(frame))
    return inbox


def test_clean_delivery_between_near_nodes():
    sim, medium, trx = make_medium([[0, 0], [20, 0]])
    inbox = collect(trx[1])
    trx[0].transmit(data_frame(0))
    sim.run()
    assert len(inbox) == 1
    assert trx[1].frames_received == 1


def test_out_of_range_not_delivered():
    sim, medium, trx = make_medium([[0, 0], [5000, 0]])
    inbox = collect(trx[1])
    trx[0].transmit(data_frame(0))
    sim.run()
    assert inbox == []


def test_airtime_80_bytes():
    sim, medium, trx = make_medium([[0, 0], [20, 0]])
    assert medium.airtime(data_frame(0)) == pytest.approx(3.2e-3)


def test_collision_of_equal_power_senders():
    # receiver equidistant from two simultaneous senders: SINR ~1 -> garbled
    sim, medium, trx = make_medium([[0, 0], [100, 0], [50, 0]])
    inbox = collect(trx[2])
    trx[0].transmit(data_frame(0))
    trx[1].transmit(data_frame(1))
    sim.run()
    assert inbox == []
    assert trx[2].frames_garbled == 2


def test_capture_of_much_stronger_signal():
    # sender 1 is 10x closer to the receiver: d^-4 gives ~40 dB advantage
    sim, medium, trx = make_medium([[0, 0], [95, 0], [100, 0]])
    inbox = collect(trx[2])
    trx[0].transmit(data_frame(0))
    trx[1].transmit(data_frame(1))
    sim.run()
    assert [f.src for f in inbox] == [1]  # strong one captured, weak lost


def test_partial_overlap_still_counts_as_interference():
    sim, medium, trx = make_medium([[0, 0], [100, 0], [50, 0]])
    inbox = collect(trx[2])
    trx[0].transmit(data_frame(0))
    # second transmission starts halfway through the first
    sim.schedule(1.6e-3, lambda: trx[1].transmit(data_frame(1)))
    sim.run()
    assert inbox == []  # both garbled at the midpoint receiver


def test_sleeping_receiver_misses_frame():
    sim, medium, trx = make_medium([[0, 0], [20, 0]])
    inbox = collect(trx[1])
    trx[1].sleep()
    trx[0].transmit(data_frame(0))
    sim.run()
    assert inbox == []
    assert trx[1].meter.state is RadioState.SLEEP


def test_waking_mid_frame_misses_it():
    sim, medium, trx = make_medium([[0, 0], [20, 0]])
    inbox = collect(trx[1])
    trx[1].sleep()
    trx[0].transmit(data_frame(0))
    sim.schedule(1e-3, trx[1].wake)  # mid-air wake: no continuous listen
    sim.run()
    assert inbox == []


def test_half_duplex_transmitter_cannot_receive():
    sim, medium, trx = make_medium([[0, 0], [20, 0], [40, 0]])
    inbox = collect(trx[1])
    trx[0].transmit(data_frame(0))
    trx[1].transmit(data_frame(1))  # busy talking
    sim.run()
    assert inbox == []


def test_radio_misuse_raises():
    sim, medium, trx = make_medium([[0, 0], [20, 0]])
    trx[0].transmit(data_frame(0))
    with pytest.raises(RadioError):
        trx[0].transmit(data_frame(0))  # nested tx
    with pytest.raises(RadioError):
        trx[0].sleep()  # mid transmission
    trx[1].sleep()
    with pytest.raises(RadioError):
        trx[1].transmit(data_frame(1))  # asleep


def test_carrier_sense_sees_in_air_frames():
    sim, medium, trx = make_medium([[0, 0], [30, 0]])
    states = []
    trx[0].transmit(data_frame(0))
    sim.schedule(1e-3, lambda: states.append(trx[1].carrier_busy()))
    sim.schedule(10e-3, lambda: states.append(trx[1].carrier_busy()))
    sim.run()
    assert states == [True, False]


def test_listener_draws_rx_power_while_air_busy():
    sim, medium, trx = make_medium([[0, 0], [30, 0]])
    trx[0].transmit(data_frame(0))
    sim.run()
    trx[1].finalize()
    # 3.2 ms of RX dwell while the frame was in the air
    assert trx[1].meter.dwell_s[RadioState.RX] == pytest.approx(3.2e-3, rel=0.05)


def test_overhearing_costs_energy_even_for_foreign_frames():
    sim, medium, trx = make_medium([[0, 0], [30, 0], [60, 0]])
    trx[0].transmit(data_frame(0, dst=2))  # addressed to node 2
    sim.run()
    trx[1].finalize()
    assert trx[1].meter.dwell_s[RadioState.RX] > 0  # paid to overhear


def test_frame_error_injection_degrades_delivery():
    deliveries = 0
    for seed in range(30):
        sim, medium, trx = make_medium([[0, 0], [20, 0]])
        medium.frame_error_rate = 0.5
        medium._error_rng = np.random.default_rng(seed)
        inbox = collect(trx[1])
        trx[0].transmit(data_frame(0))
        sim.run()
        deliveries += len(inbox)
    assert 5 <= deliveries <= 25  # ~50% loss


def test_tx_done_signal_fires():
    sim, medium, trx = make_medium([[0, 0], [20, 0]])
    fired = []
    trx[0].tx_done._subscribe(fired.append)
    trx[0].transmit(data_frame(0))
    sim.run()
    assert fired == [0]


def test_hearing_matrix_symmetric_for_equal_power():
    sim, medium, trx = make_medium([[0, 0], [40, 0], [500, 0]])
    h = medium.hearing_matrix()
    assert h[0, 1] and h[1, 0]
    assert not h[0, 2] and not h[2, 0]
    assert not np.diagonal(h).any()


def test_medium_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        RadioMedium(
            sim=sim,
            positions=np.zeros((2, 2)),
            tx_power_w=np.ones(3),
            propagation=TwoRayGround(),
        )
    with pytest.raises(ValueError):
        RadioMedium(
            sim=sim,
            positions=np.zeros((2, 2)),
            tx_power_w=np.ones(2),
            propagation=TwoRayGround(),
            frame_error_rate=1.5,
        )


def test_cross_channel_frame_is_invisible():
    # A channel-1 frame 20 m from a channel-0 listener: no delivery, no
    # garble, no RX dwell, and carrier sense never hears it.
    sim, medium, trx = make_medium([[0, 0], [20, 0]])
    medium.set_channel(0, 1)
    inbox = collect(trx[1])
    busy = []
    trx[0].transmit(data_frame(0))
    sim.schedule(1e-3, lambda: busy.append(trx[1].carrier_busy()))
    sim.run()
    trx[1].finalize()
    assert inbox == [] and trx[1].frames_garbled == 0
    assert trx[1].meter.dwell_s[RadioState.RX] == 0.0
    assert busy == [False]


@pytest.mark.parametrize("split", [True, False])
def test_equidistant_senders_collide_only_on_a_shared_channel(split):
    # Receivers 2 and 3 sit halfway between senders 0 and 1 (SINR ~1 when
    # both are heard, as in test_collision_of_equal_power_senders).  On two
    # channels each receiver decodes its own channel's frame.
    sim, medium, trx = make_medium([[0, 0], [100, 0], [50, 0], [50, 2]])
    if split:
        medium.set_channel(1, 1)
        medium.set_channel(3, 1)
    inbox2, inbox3 = collect(trx[2]), collect(trx[3])
    trx[0].transmit(data_frame(0))
    trx[1].transmit(data_frame(1))
    sim.run()
    if split:
        assert [f.src for f in inbox2] == [0] and [f.src for f in inbox3] == [1]
        assert trx[2].frames_garbled == trx[3].frames_garbled == 0
    else:
        assert inbox2 == inbox3 == []
        assert trx[2].frames_garbled == trx[3].frames_garbled == 2


def test_retune_onto_busy_channel_waits_for_next_medium_event():
    # The medium applies a retune to RX/IDLE states lazily, at the next
    # transmission start or end anywhere on the medium, never at the retune
    # itself.  That timing moves energy meters, and the stored field-mobile
    # benchmark digests depend on it.
    sim, medium, trx = make_medium([[0, 0], [20, 0], [400, 0]])
    medium.set_channel(0, 1)
    medium.set_channel(2, 2)  # far away, alone on its channel
    states = []

    def probe():
        states.append(trx[1].state)

    trx[0].transmit(data_frame(0, size=250))  # 10 ms on channel 1
    sim.schedule(1e-3, probe)
    sim.schedule(2e-3, medium.set_channel, 1, 1)  # onto the busy channel
    sim.schedule(3e-3, probe)
    sim.schedule(4e-3, lambda: trx[2].transmit(data_frame(2, size=12)))
    sim.schedule(5e-3, probe)
    sim.run()
    assert states == [RadioState.IDLE, RadioState.IDLE, RadioState.RX]


@pytest.mark.parametrize("retune", [False, True])
def test_decode_reads_interferer_channels_at_frame_end(retune):
    # A 200-byte channel-1 frame from 0 to 1 overlaps a short channel-0
    # frame from 2, 5 m from the receiver.  Retuning 2 onto channel 1 after
    # its own frame ended, but before the long one does, turns the long
    # frame into a collision: the decode filters the recorded interferers
    # by the channels current at frame end.  This is why a batch slot must
    # not be followed by a field-wide event while a frame of another
    # channel that overlapped it is still in the air (DESIGN.md §12).
    sim, medium, trx = make_medium([[0, 0], [30, 0], [35, 0]])
    medium.set_channel(0, 1)
    medium.set_channel(1, 1)
    inbox = collect(trx[1])
    trx[0].transmit(data_frame(0, size=200))  # 8 ms
    sim.schedule(1e-3, lambda: trx[2].transmit(data_frame(2, size=16)))  # ends 1.64 ms
    if retune:
        sim.schedule(3e-3, medium.set_channel, 2, 1)
    sim.run()
    if retune:
        assert inbox == [] and trx[1].frames_garbled == 1
    else:
        assert [f.src for f in inbox] == [0] and trx[1].frames_garbled == 0


def test_channels_and_powers_are_read_only():
    # Retunes go through set_channel and moves through update_positions,
    # which mark the medium stale so that its per-channel rosters and
    # per-sender decode lists are rebuilt.
    sim, medium, trx = make_medium([[0, 0], [20, 0]])
    with pytest.raises(ValueError):
        medium.channels[1] = 1
    with pytest.raises(ValueError):
        medium.rx_power[0, 1] = 0.0
    medium.set_channel(1, 1)
    assert medium.channels.tolist() == [0, 1]

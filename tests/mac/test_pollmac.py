"""Tests for the polling MAC over the event-driven PHY."""

import numpy as np
import pytest

from repro.mac import MacTimings, build_cluster_phy, geometric_oracle, phy_truth_oracle
from repro.mac.pollmac import PollingClusterMac
from repro.net import PollingSimConfig, run_polling_simulation
from repro.sim import Simulator
from repro.topology import Cluster, line, uniform_square


def small_run(**overrides) -> "PollingSimResult":
    cfg = dict(n_sensors=8, rate_bps=20.0, cycle_length=4.0, n_cycles=4, seed=2)
    cfg.update(overrides)
    return run_polling_simulation(PollingSimConfig(**cfg))


def test_all_eligible_packets_delivered():
    res = small_run()
    assert res.throughput_ratio == 1.0
    assert res.mac.packets_failed == 0
    assert res.packets_delivered > 0


def test_sensors_sleep_most_of_the_time():
    res = small_run()
    assert 0.0 < res.mean_active_fraction < 0.2


def test_duty_cycle_stats_recorded():
    res = small_run()
    assert len(res.mac.cycle_stats) == 4
    for s in res.mac.cycle_stats:
        assert s.duty_time > 0
        assert s.ack_slots > 0


def test_delivered_packets_are_genuine():
    """Every delivered AppPacket was really generated at its origin sensor."""
    res = small_run()
    delivered = res.mac.delivered_packets()
    assert len({(p.origin, p.seq) for p in delivered}) == len(delivered)  # no dupes
    for p in delivered:
        assert 0 <= p.origin < 8
        assert p.created <= res.elapsed


def test_lossy_channel_still_delivers_everything():
    res = small_run(frame_error_rate=0.15, n_cycles=5)
    # re-polling absorbs the loss; only retry-limit exhaustion may fail
    assert res.throughput_ratio >= 0.99
    retx = sum(s.retransmissions for s in res.mac.cycle_stats)
    assert retx > 0  # losses actually happened and were re-polled


def test_heavy_load_saturates_but_catches_up():
    res = small_run(rate_bps=600.0, cycle_length=2.0, n_cycles=6)
    assert res.duty_fraction() > 0.3
    assert res.throughput_ratio == 1.0


def test_phy_truth_oracle_matches_medium_single_links():
    sim = Simulator()
    dep = uniform_square(10, seed=4)
    cluster = Cluster.from_deployment(dep)
    phy = build_cluster_phy(sim, cluster)
    oracle = phy_truth_oracle(phy)
    hearing = phy.medium.hearing_matrix()
    n = phy.n_sensors
    for i in range(n):
        for j in range(n):
            if i != j:
                assert oracle.single_link_ok((j, i)) == hearing[i, j]


def test_geometric_oracle_equals_des_oracle():
    """The schedule-level experiments and the DES agree on compatibility."""
    dep = uniform_square(10, seed=4)
    geo = Cluster.from_deployment(dep)
    sim = Simulator()
    phy = build_cluster_phy(sim, geo)
    des_oracle = phy_truth_oracle(phy)
    ana_oracle, discovered = geometric_oracle(geo)
    n = geo.n_sensors
    # identical connectivity
    hearing = phy.medium.hearing_matrix()
    assert np.array_equal(discovered.hears, hearing[:n, :n])
    assert np.array_equal(discovered.head_hears, hearing[n, :n])
    # identical pair answers on actual links
    links = [(j, i) for i in range(n) for j in range(n) if discovered.hears[i, j]]
    links += [(-1 if False else s, -1) for s in discovered.first_level_sensors()]
    from itertools import combinations

    for a, b in list(combinations(links, 2))[:300]:
        if len({a[0], a[1], b[0], b[1]}) < 4:
            continue
        assert des_oracle.compatible([a, b]) == ana_oracle.compatible([a, b])


def test_des_duty_time_matches_slot_model():
    """Cross-validation: event-driven duty time == slot count x slot time."""
    res = small_run(seed=3)
    timings = res.config.timings
    sizes = __import__("repro.radio.packet", fromlist=["DEFAULT_SIZES"]).DEFAULT_SIZES
    ack_slot = timings.poll_slot_time(res.config.bitrate, sizes, sizes.ack_report)
    data_slot = timings.poll_slot_time(res.config.bitrate, sizes, sizes.data)
    for s in res.mac.cycle_stats:
        modeled = s.ack_slots * ack_slot + s.data_slots * data_slot
        # duty also includes wakeup/sleep broadcasts: small additive slack
        assert s.duty_time == pytest.approx(modeled, abs=0.02)


def test_line_cluster_pipeline_over_phy():
    """A 3-hop chain forces genuine relaying through the DES."""
    dep = line(3, spacing=30.0, comm_range=35.0)
    res = run_polling_simulation(
        PollingSimConfig(n_sensors=3, rate_bps=20.0, cycle_length=4.0, n_cycles=3, seed=0),
        deployment=dep,
    )
    assert res.throughput_ratio == 1.0
    # the far sensor's packets took 3 hops: relays transmitted more than they own
    sent = [a.packets_sent for a in res.mac.sensors]
    assert sent[0] > sent[2]


# --- sector operation over the DES (Sec. IV executed) ---------------------------

def test_sector_mode_delivers_everything():
    res = small_run(use_sectors=True, n_cycles=5)
    assert res.throughput_ratio == 1.0
    assert res.mac.partition is not None
    assert res.mac.partition.n_sectors >= 2


def test_sector_mode_reduces_active_time_under_load():
    plain = small_run(rate_bps=120.0, n_cycles=5, n_sensors=14, seed=4)
    sect = small_run(rate_bps=120.0, n_cycles=5, n_sensors=14, seed=4, use_sectors=True)
    assert sect.throughput_ratio == 1.0
    assert sect.mean_active_fraction < plain.mean_active_fraction


def test_sector_mode_survives_overrunning_cycles():
    res = small_run(rate_bps=500.0, cycle_length=2.0, n_cycles=5, use_sectors=True)
    assert res.throughput_ratio == 1.0


def test_sector_mode_with_losses():
    res = small_run(use_sectors=True, frame_error_rate=0.1, n_cycles=5)
    assert res.throughput_ratio >= 0.99

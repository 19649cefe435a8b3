"""The PHY's per-kind event counts against the radios' own frame counters.

Each :class:`~repro.radio.channel.RadioMedium` counts its transmission
starts and ends, clean decodes and collisions; the vector slot engine
counts the slots it replays.  After a run those counts must equal sums over
the medium's registered radios, under both slot engines, with and without
random frame errors and bursty links, and on a shared multi-cluster medium.
"""

import pytest

from repro.faults import BurstyLinks, FaultPlan
from repro.net import MultiClusterConfig, run_multicluster_simulation
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation


def _assert_counts_match_radios(medium):
    radios = list(medium._transceivers.values())
    counts = medium.tracer.counts
    sent = sum(trx.frames_sent for trx in radios)
    assert sent > 0
    assert counts["phy_tx_start"] == sent
    assert counts["phy_tx_end"] == sent - len(medium._active)
    assert counts["phy_rx_ok"] == sum(trx.frames_received for trx in radios)
    assert counts["phy_rx_collision"] == sum(trx.frames_garbled for trx in radios)


REGIMES = {
    "clean": {},
    "frame-errors": {"frame_error_rate": 0.1},
    "bursty": {"fault_plan": FaultPlan(bursty_links=BurstyLinks())},
}


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_cluster_counts_equal_radio_counters(engine, regime):
    res = run_polling_simulation(
        PollingSimConfig(n_sensors=25, n_cycles=4, seed=3, engine=engine, **REGIMES[regime])
    )
    _assert_counts_match_radios(res.phy.medium)
    assert res.phy.tracer is res.phy.medium.tracer


def test_multicluster_counts_equal_radio_counters():
    res = run_multicluster_simulation(
        MultiClusterConfig(n_cycles=3, seed=0, mode="uncoordinated")
    )
    medium = res.macs[0].phy.medium
    _assert_counts_match_radios(medium)
    assert res.collisions == medium.tracer.counts["phy_rx_collision"] > 0


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_channel_mode_field_counts_equal_radio_counters(engine):
    res = run_multicluster_simulation(
        MultiClusterConfig(
            n_cycles=4, seed=2, mobility_speed_mps=3.0, handoff="staleness", engine=engine
        )
    )
    _assert_counts_match_radios(res.macs[0].phy.medium)
    assert (sum(mac.vector_slots for mac in res.macs) > 0) == (engine == "vector")


def test_multicluster_runs_count_from_zero():
    cfg = MultiClusterConfig(
        n_sensors=20, n_heads=2, n_cycles=2, seed=4, cycle_length=5.0, field_m=260.0
    )
    first = run_multicluster_simulation(cfg)
    second = run_multicluster_simulation(cfg)
    # Each run's medium owns its counts: the second run reproduces the
    # first instead of adding to it.
    assert second.collisions == first.collisions
    assert dict(second.macs[0].phy.medium.tracer.counts) == dict(
        first.macs[0].phy.medium.tracer.counts
    )

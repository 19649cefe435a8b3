"""Tests for multi-cluster operation on a shared medium (Sec. V-G executed)."""

import numpy as np
import pytest

from repro.core.online import OnlinePollingScheduler
from repro.net import MultiClusterConfig, run_multicluster_simulation

RUN_FIELD = dict(n_sensors=40, n_heads=3, seed=2, field_m=330.0)


def run(mode, **kw):
    cfg = dict(RUN_FIELD, n_cycles=3, rate_bps=20.0, cycle_length=5.0)
    cfg.update(kw)
    return run_multicluster_simulation(MultiClusterConfig(mode=mode, **cfg))


@pytest.mark.parametrize(
    "field, channels",
    [
        # the field-mobile benchmark's deployment
        (dict(n_sensors=120, n_heads=4, field_m=420.0, seed=1), [3, 2, 1, 0]),
        *[(dict(seed=s), [2, 1, 0]) for s in range(6)],
        (RUN_FIELD, [2, 1, 0]),
    ],
)
def test_stored_fields_keep_their_channel_maps(field, channels):
    """The fields behind the stored digests and tables keep their coloring."""
    res = run_multicluster_simulation(MultiClusterConfig(n_cycles=1, **field))
    assert res.channels.tolist() == channels


def test_no_co_channel_radio_of_another_cluster_in_carrier_sense_reach():
    """Heads transmit at 4x the power that reaches their farthest member, so
    on this field clusters whose sensors sit far apart still hear each
    other's heads.  Co-channel clusters must not, and then no slot leaves
    the batch engine on rule 5."""
    res = run_multicluster_simulation(
        MultiClusterConfig(n_sensors=100, n_heads=5, field_m=420.0, n_cycles=4, seed=1)
    )
    medium = res.macs[0].phy.medium
    rosters = [mac.phy.index_map for mac in res.macs]
    in_reach = 0
    for a, rx in enumerate(rosters):
        for b, tx in enumerate(rosters):
            if a != b and res.channels[a] == res.channels[b]:
                heard = medium.rx_power[np.ix_(rx, tx)]
                in_reach += int((heard >= medium.cs_threshold).sum())
    assert in_reach == 0
    assert [mac.scalar_slots for mac in res.macs] == [0] * len(res.macs)


@pytest.mark.parametrize("mode, runs_per_head", [("channels", 0), ("token", 1)])
def test_only_token_mode_plans_duty_windows(monkeypatch, mode, runs_per_head):
    """Token windows are sized by one planning run of each head's schedule;
    no other mode has windows, so no other mode plans them."""
    planned = []
    plan_run = OnlinePollingScheduler.run

    def counted(scheduler, *args, **kwargs):
        planned.append(scheduler)
        return plan_run(scheduler, *args, **kwargs)

    monkeypatch.setattr(OnlinePollingScheduler, "run", counted)
    run_multicluster_simulation(MultiClusterConfig(n_cycles=1, seed=0, mode=mode))
    assert len(planned) == runs_per_head * MultiClusterConfig.n_heads


@pytest.fixture(scope="module")
def trio():
    return {m: run(m) for m in ("uncoordinated", "token", "channels")}


def test_uncoordinated_clusters_collide(trio):
    un = trio["uncoordinated"]
    assert un.collisions > 10 * trio["channels"].collisions
    assert un.delivery_ratio < 1.0 or un.packets_failed > 0


def test_token_rotation_removes_interference(trio):
    tok = trio["token"]
    assert tok.delivery_ratio == 1.0
    assert tok.collisions < trio["uncoordinated"].collisions / 10


def test_channel_coloring_removes_interference(trio):
    ch = trio["channels"]
    assert ch.delivery_ratio == 1.0
    # clusters in each other's carrier-sense reach got different channels
    medium = ch.macs[0].phy.medium
    rosters = [mac.phy.index_map for mac in ch.macs]
    adjacent = 0
    for a, ra in enumerate(rosters):
        for b, rb in enumerate(rosters):
            if a != b and medium.in_cs_reach(ra, rb):
                adjacent += 1
                assert ch.channels[a] != ch.channels[b]
    assert adjacent


def test_every_cluster_delivers(trio):
    for mode in ("token", "channels"):
        per = trio[mode].per_cluster_delivery()
        assert sum(d for _, d in per) == trio[mode].packets_delivered
        assert sum(d > 0 for _, d in per) >= 2  # most clusters carried traffic


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run("carrier-pigeon")


def test_deterministic_given_seed():
    a = run("channels", n_cycles=2)
    b = run("channels", n_cycles=2)
    assert a.packets_delivered == b.packets_delivered
    assert a.collisions == b.collisions

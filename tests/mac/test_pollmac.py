"""Tests for the polling MAC over the event-driven PHY."""

import numpy as np
import pytest

from repro.core.ack import plan_ack_collection
from repro.core.sectors import partition_into_sectors
from repro.faults import FaultPlan, NodeJoin
from repro.mac import (
    GROUND_SENSOR_PROPAGATION,
    MacTimings,
    build_cluster_phy,
    geometric_oracle,
    phy_truth_oracle,
)
from repro.mac.pollmac import PollingClusterMac
from repro.net import (
    MultiClusterConfig,
    PollingSimConfig,
    run_multicluster_simulation,
    run_polling_simulation,
)
from repro.radio.propagation import LogNormalShadowing
from repro.routing.backup import compute_backup_routes
from repro.routing.minmax import solve_min_max_load
from repro.routing.repair import prune_dead_nodes
from repro.sim import Simulator
from repro.topology import Cluster, line, uniform_square
from repro.topology.recluster import discovered_cluster


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


@pytest.mark.parametrize(
    "n_sensors, seed, range_m, sigma_db",
    [
        (10, 4, 60.0, None),
        (30, 1, 60.0, None),
        (60, 7, 55.0, None),
        (30, 3, 45.0, None),
        (25, 1, 60.0, 6.0),  # the model ablations.shadowing_discovery passes
    ],
)
def test_geometric_oracle_equals_des_oracle(n_sensors, seed, range_m, sigma_db):
    """The schedule-level experiments and the DES plan from one radio: the
    oracle and cluster of ``geometric_oracle`` are the ones the MAC reads
    off ``build_cluster_phy``, bit for bit."""
    geo = Cluster.from_deployment(uniform_square(n_sensors, seed=seed))
    prop = None
    if sigma_db is not None:
        prop = LogNormalShadowing(
            reference=GROUND_SENSOR_PROPAGATION, sigma_db=sigma_db, seed=seed
        )
    oracle, discovered = geometric_oracle(geo, sensor_range_m=range_m, propagation=prop)
    phy = build_cluster_phy(Simulator(), geo, sensor_range_m=range_m, propagation=prop)
    des_oracle = phy_truth_oracle(phy)
    des_cluster = discovered_cluster(phy)
    assert np.array_equal(oracle.power, des_oracle.power)
    assert oracle.beta == des_oracle.beta
    assert oracle.noise == des_oracle.noise
    assert oracle.max_group_size == des_oracle.max_group_size
    for name in ("hears", "head_hears", "packets", "energy", "positions", "head_position"):
        assert np.array_equal(getattr(discovered, name), getattr(des_cluster, name)), name


def test_des_duty_time_matches_slot_model():
    """Cross-validation: event-driven duty time == slot count x slot time."""
    res = small_run(seed=3)
    timings = res.config.timings
    sizes = __import__("repro.radio.packet", fromlist=["DEFAULT_SIZES"]).DEFAULT_SIZES
    ack_slot = timings.poll_slot_time(res.phy.medium.bitrate, sizes, sizes.ack_report)
    data_slot = timings.poll_slot_time(res.phy.medium.bitrate, sizes, sizes.data)
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


# --- the plan put in force at construction --------------------------------------


def _initial_plans(monkeypatch, run) -> list[dict]:
    """Every MAC that *run* constructs, as the plan it put in force at
    construction next to a reference computed from its PHY right then: a
    cold min-max solve over the PHY's cluster with the absent joiners
    pruned, at one packet per sensor with a hop path and zero otherwise,
    with the ack cover, backups and sector partition built on it."""

    def sectors(partition):
        return [(s.sensors, s.roots, s.parent) for s in partition.sectors]

    plans = []
    init = PollingClusterMac.__init__

    def record(mac, *args, **kwargs):
        init(mac, *args, **kwargs)
        cluster = prune_dead_nodes(mac.phy.cluster, mac.absent)
        hops = cluster.min_hop_counts()
        packets = np.where(np.isfinite(hops), np.maximum(cluster.packets, 1), 0)
        routing = solve_min_max_load(cluster.with_packets(packets.astype(np.int64)))
        plans.append(
            {
                "mac": mac,
                "stray": {
                    i
                    for i in range(cluster.n_sensors)
                    if i not in mac.absent and not np.isfinite(hops[i])
                },
                "unreachable": set(mac.unreachable),
                "record": mac.replans[0],
                "plan": (
                    mac.routing.flow_paths,
                    mac.ack_plan,
                    mac.backups,
                    None if mac.partition is None else sectors(mac.partition),
                ),
                "reference": (
                    routing.flow_paths,
                    plan_ack_collection(cluster, routing.routing_plan()),
                    compute_backup_routes(routing, mac.backup_k)
                    if mac.backup_k
                    else None,
                    sectors(partition_into_sectors(routing, oracle=mac.oracle))
                    if mac.use_sectors
                    else None,
                ),
            }
        )

    monkeypatch.setattr(PollingClusterMac, "__init__", record)
    run()
    return plans


def _sectored_backup_run():
    run_polling_simulation(
        PollingSimConfig(n_sensors=30, n_cycles=1, seed=3, backup_k=1, use_sectors=True)
    )


def _churn_run():
    joins = [NodeJoin(at=15.0, position=(90.0, 90.0)), NodeJoin(at=15.0, position=(20.0, 180.0))]
    run_polling_simulation(
        PollingSimConfig(n_sensors=24, n_cycles=1, seed=1, fault_plan=FaultPlan(joins=joins))
    )


def _field_run():
    run_multicluster_simulation(MultiClusterConfig(n_cycles=1, seed=0))


@pytest.mark.parametrize(
    "run", [_sectored_backup_run, _churn_run, _field_run], ids=["sectors", "churn", "field"]
)
def test_construction_plans_the_min_max_routing_and_its_tail(run, monkeypatch):
    """The plan in force from t=0 is the min-max routing over the cluster
    minus the absent joiners, with one packet planned per sensor that has
    a hop path, and the ack cover, backups and sectors built on it."""
    plans = _initial_plans(monkeypatch, run)
    assert plans
    for p in plans:
        assert p["plan"] == p["reference"]
    if run is _churn_run:
        assert [len(p["mac"].absent) for p in plans] == [2]
    if run is _field_run:
        assert [len(p["stray"]) for p in plans] == [1, 12, 0]


@pytest.mark.parametrize(
    "run, strays",
    [(_sectored_backup_run, [0]), (_field_run, [1, 12, 0])],
    ids=["sectors", "field"],
)
def test_strays_are_unreachable_from_the_initial_plan(run, strays, monkeypatch):
    """A sensor with no hop path to its head has no service from t=0, so
    the initial plan and its record list it as unreachable (DESIGN.md
    §11); on the default field heads 0 and 1 start with 1 and 12 strays."""
    plans = _initial_plans(monkeypatch, run)
    assert [len(p["stray"]) for p in plans] == strays
    for p in plans:
        assert p["unreachable"] == p["stray"]
        assert p["record"].cause == "initial"
        assert p["record"].unreachable == tuple(sorted(p["stray"]))

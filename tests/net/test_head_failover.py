"""Cluster-head crash, beacon detection, and sensor adoption (Sec. V-G +).

A crashed head is detected by its peers through missed inter-cluster
beacons; the orphaned sensors are adopted by the nearest surviving head
(radios retuned, agents re-bound, queued data carried over, demand merged
by the standard boundary repair).  With failover off the orphans simply go
dark — the comparison baseline.  With everything off the coordinator must
not even exist.

The field here is dense enough that neighbor clusters overlap in radio
range — adoption can only help orphans a surviving head can physically
reach; ones beyond reach fall under the partial-coverage contract.
"""

import numpy as np
import pytest

from repro import validate
from repro.net import MultiClusterConfig, run_multicluster_simulation
from repro.net.multicluster_sim import BEACON_INTERVAL_S, BEACON_MISS_LIMIT

BASE = dict(
    n_sensors=60,
    n_heads=3,
    n_cycles=6,
    seed=2,
    cycle_length=6.0,
    field_m=360.0,
    mode="channels",
)
CRASH_AT = 8.0  # inside cycle 1 of 6


@pytest.fixture(scope="module")
def healthy():
    return run_multicluster_simulation(MultiClusterConfig(**BASE))


@pytest.fixture(scope="module")
def crashed_dark():
    cfg = MultiClusterConfig(**BASE, head_crashes=((0, CRASH_AT),))
    return run_multicluster_simulation(cfg)


@pytest.fixture(scope="module")
def adopted():
    cfg = MultiClusterConfig(
        **BASE, head_crashes=((0, CRASH_AT),), head_failover=True
    )
    with validate.strict():
        return run_multicluster_simulation(cfg)


def test_defaults_create_no_coordinator(healthy):
    assert healthy.coordinator is None


def test_crash_without_failover_goes_dark(healthy, crashed_dark):
    coord = crashed_dark.coordinator
    assert coord is not None
    assert coord.crashed == [(0, CRASH_AT)]
    assert coord.adoption_events == []
    assert crashed_dark.macs[0].halted
    # the dead cluster stops delivering; the network as a whole loses data
    per_healthy = dict(healthy.per_cluster_delivery())
    per_dark = dict(crashed_dark.per_cluster_delivery())
    assert per_dark[0] < per_healthy[0]
    assert crashed_dark.packets_delivered < healthy.packets_delivered


def test_beacon_watchdog_detects_within_miss_limit(adopted):
    coord = adopted.coordinator
    assert coord.adoption_events, "watchdog never declared the dead head"
    detection = min(ev.time for ev in coord.adoption_events)
    latency = detection - CRASH_AT
    assert 0 < latency <= (BEACON_MISS_LIMIT + 1) * BEACON_INTERVAL_S


def test_orphans_are_adopted_by_surviving_heads(adopted):
    coord = adopted.coordinator
    orphans = {int(g) for g in adopted.net.members[0]}
    adopted_sensors = {s for ev in coord.adoption_events for s in ev.sensors}
    assert adopted_sensors == orphans
    for ev in coord.adoption_events:
        assert ev.dead_head == 0
        assert ev.adopter in (1, 2)
        assert not adopted.macs[ev.adopter].halted
    # adopter MACs actually grew and re-solved routing around the merge
    assert sum(mac.adoptions for mac in adopted.macs) == len(orphans)
    for mac in adopted.macs:
        if mac.adoptions:
            assert mac.route_repairs >= 1


def test_takeover_restores_delivery(crashed_dark, adopted):
    # adopting heads pick up the orphans' traffic: strictly more of the
    # network's data arrives than in the gone-dark baseline, and adopted
    # sensors (local ids past the adopter's original roster) deliver.
    assert adopted.packets_delivered > crashed_dark.packets_delivered
    takeover_at = max(ev.time for ev in adopted.coordinator.adoption_events)
    adopted_origin_deliveries = 0
    for mac in adopted.macs:
        if not mac.adoptions:
            continue
        first_new_local = mac.phy.n_sensors - mac.adoptions
        adopted_origin_deliveries += sum(
            1
            for t, packet in mac.deliveries
            if t > takeover_at and packet.origin >= first_new_local
        )
    assert adopted_origin_deliveries > 0


def test_adopted_agents_rebind_their_radios(adopted):
    coord = adopted.coordinator
    for ev in coord.adoption_events:
        mac = adopted.macs[ev.adopter]
        new_agents = mac.sensors[-len(ev.sensors) :]
        index_map = mac.phy.index_map
        assert [index_map[a.sensor] for a in new_agents] == list(ev.sensors)
        dead_phy_map = list(adopted.macs[ev.dead_head].phy.index_map)
        for agent in new_agents:
            assert agent.cluster_id == ev.adopter
            # same physical radio object the dead cluster used, now bound
            # to the new agent and tuned to the adopter's channel
            assert agent.trx is mac.phy.trx(agent.sensor)
            g = index_map[agent.sensor]
            assert agent.trx is adopted.macs[ev.dead_head].phy.transceivers[
                dead_phy_map.index(g)
            ]
            assert int(adopted.coordinator.medium.channels[g]) == int(
                adopted.channels[ev.adopter]
            )


def test_head_failover_run_is_deterministic():
    cfg = MultiClusterConfig(
        **BASE, head_crashes=((0, CRASH_AT),), head_failover=True
    )
    a = run_multicluster_simulation(cfg)
    b = run_multicluster_simulation(cfg)
    assert a.packets_delivered == b.packets_delivered
    assert a.per_cluster_delivery() == b.per_cluster_delivery()
    assert [
        (e.time, e.dead_head, e.adopter, e.sensors)
        for e in a.coordinator.adoption_events
    ] == [
        (e.time, e.dead_head, e.adopter, e.sensors)
        for e in b.coordinator.adoption_events
    ]


# -- adoption re-plans like every other roster change -------------------------
# Head 1 dies at t=33 holding evidence: it had blacklisted seven of its
# sensors.  Its orphans' records must follow them to their adopters, and the
# orphans an adopter cannot reach must be logged so their demand reconciles.

EVIDENCE = dict(
    n_cycles=8,
    seed=2,
    mobility_speed_mps=3.0,
    dead_after_misses=2,
    head_failover=True,
    head_crashes=((1, 33.0),),
)


@pytest.fixture(scope="module")
def adopted_with_evidence():
    from repro.mac.pollmac import PollingClusterMac

    # Watch each adoption from inside: the adopter's agents and roster
    # announcement before and after the takeover.
    calls = []
    take_roster = PollingClusterMac.take_roster

    def spy(mac, new_phy, agents, cause, admitted=(), **evidence):
        assert cause == "adoption"  # handoff is off in this run
        before = (list(mac.sensors), mac._reform_roster_bytes)
        out = take_roster(mac, new_phy, agents, cause, admitted, **evidence)
        calls.append((mac, before, (list(mac.sensors), mac._reform_roster_bytes)))
        return out

    mp = pytest.MonkeyPatch()
    mp.setattr(PollingClusterMac, "take_roster", spy)
    try:
        with validate.strict():  # the whole run stays strict-clean
            res = run_multicluster_simulation(MultiClusterConfig(**EVIDENCE))
    finally:
        mp.undo()
    return res, calls


def _local(mac, g):
    return [int(x) for x in mac.phy.index_map].index(g)


def test_adoption_carries_the_dead_heads_blacklist(adopted_with_evidence):
    res, _ = adopted_with_evidence
    dead = res.macs[1]
    dead_ids = [int(g) for g in dead.phy.index_map]
    dead_blacklist = {dead_ids[l] for l in dead.blacklisted}
    carried = 0
    for ev in res.coordinator.adoption_events:
        adopter = res.macs[ev.adopter]
        for g in dead_blacklist & set(ev.sensors):
            # under its new local id at the adopter, not its old one
            assert _local(adopter, g) in adopter.blacklisted
            carried += _local(adopter, g) != dead_ids.index(g)
    assert carried, "no blacklisted orphan changed local id"


def test_adoption_logs_the_orphans_it_strands(adopted_with_evidence):
    from repro.metrics.degradation import reconcile_dropped_demand

    res, _ = adopted_with_evidence
    events = res.coordinator.adoption_events
    assert {ev.adopter for ev in events} == {0, 2}
    for ev in events:
        mac = res.macs[ev.adopter]
        entries = [r for r in mac.replans if r.time == ev.time]
        assert len(entries) == 1
        (entry,) = entries
        assert entry.cause == "adoption"
        orphans = {_local(mac, g) for g in ev.sensors}
        assert set(entry.admitted) == orphans
        stranded = orphans & set(entry.unreachable)
        assert stranded, "the config must strand some orphans"
        assert stranded <= set(entry.newly_unreachable)
        assert sum(entry.dropped_pending[l] for l in stranded) > 0
        # reconcile_dropped_demand bills each stranded orphan's packets
        # to this adoption
        reconciled = reconcile_dropped_demand(mac.replans)
        for l in stranded:
            assert reconciled[l] == entry.dropped_pending[l]


def test_adoption_keeps_agents_and_announces_no_roster(adopted_with_evidence):
    _, calls = adopted_with_evidence
    assert calls
    for mac, (agents_before, bytes_before), (agents_after, bytes_after) in calls:
        # no local id changes in an adoption: the adopter's own agents stay
        # (an adoption can land mid-cycle) and the orphans append
        assert all(a is b for a, b in zip(agents_after, agents_before))
        assert len(agents_after) > len(agents_before)
        assert bytes_after == bytes_before


def test_adoption_is_checked_like_a_handoff_commit(monkeypatch):
    """An adoption transplants queues and changes a roster, so it runs the
    checks a handoff commit runs: a rebuild that loses one queued packet of
    an incoming orphan is one ``dynamic.queue-conservation`` per adopter.
    Beacons every 0.25 s declare head 1 dead at 12.25 s."""
    from repro.net import multicluster_sim

    rebuild = multicluster_sim._rebuild_roster
    dropped = []

    def lossy(mac, roster, incoming, view, source_by_global):
        new_phy, agents, evidence = rebuild(mac, roster, incoming, view, source_by_global)
        for agent, g in zip(agents, roster):
            if g in incoming and agent.own_queue:
                dropped.append(agent.own_queue.pop())
                break
        return new_phy, agents, evidence

    monkeypatch.setattr(multicluster_sim, "_rebuild_roster", lossy)
    monkeypatch.setattr(multicluster_sim, "BEACON_INTERVAL_S", 0.25)
    cfg = MultiClusterConfig(
        n_cycles=4, seed=0, head_failover=True, head_crashes=((1, 11.7),)
    )
    with validate.warn(), validate.MONITOR.capture() as found:
        with pytest.warns(validate.InvariantWarning):
            res = run_multicluster_simulation(cfg)
    assert len(res.coordinator.adoption_events) == len(dropped) == 2
    assert [(v.invariant, v.sim_time) for v in found] == [
        ("dynamic.queue-conservation", 12.25)
    ] * 2


# -- adoption by the head nearest each orphan's current position ---------------
# The field-mobile benchmark run (perfbench/workloads.py::field_mobile at its
# default seed): sensors drift at 2 m/s and head 3 crashes at 33.384 s.

FIELD_MOBILE = dict(
    n_sensors=120,
    n_heads=4,
    field_m=420.0,
    n_cycles=8,
    seed=1,
    mobility_speed_mps=2.0,
    handoff="staleness",
    head_failover=True,
    head_crashes=((3, 33.384),),
)


@pytest.mark.xfail(
    strict=True,
    reason="FieldCoordinator._declare_dead measures each orphan from "
    "its deploy-time position, not its current one: global sensors 49 and 55 "
    "go to head 1 though head 2 is nearest; reading medium.positions moves "
    "the stored field-mobile digests, so the fix waits for a re-record",
)
def test_orphans_go_to_the_live_head_nearest_their_current_position(monkeypatch):
    from repro.net.multicluster_sim import FieldCoordinator

    declared = []
    declare = FieldCoordinator._declare_dead

    def spy(coord, dead_head):
        live = [h for h, mac in enumerate(coord.macs) if h != dead_head and not mac.halted]
        positions = coord.medium.positions.copy()
        declared.append((coord.sim.now, dead_head, live, positions, coord.head_positions.copy()))
        declare(coord, dead_head)

    monkeypatch.setattr(FieldCoordinator, "_declare_dead", spy)
    res = run_multicluster_simulation(MultiClusterConfig(**FIELD_MOBILE))
    events = res.coordinator.adoption_events
    assert declared and events
    misplaced = []
    for time, dead_head, live, positions, heads in declared:
        for ev in events:
            if (ev.time, ev.dead_head) != (time, dead_head):
                continue
            for g in ev.sensors:
                dist2 = ((heads[live] - positions[g]) ** 2).sum(axis=1)
                nearest = live[int(np.argmin(dist2))]
                if nearest != ev.adopter:
                    misplaced.append((g, ev.adopter, nearest))
    assert misplaced == []

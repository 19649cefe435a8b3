"""Tests for the fault injector against a live PHY: crash, stun, battery,
and the bounded-drift step that both mobility layers run."""

import math

import numpy as np
import pytest

from repro.faults import (
    BatteryDepletion,
    BurstyLinks,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    TransientStun,
)
from repro.faults.injector import drift_step
from repro.mac.base import build_cluster_phy
from repro.radio.energy import RadioState
from repro.radio.packet import Frame, FrameType
from repro.sim import Simulator
from repro.sim.rng import mobility_rng
from repro.topology import Cluster, line


def _phy(n=3):
    sim = Simulator()
    dep = line(n, spacing=30.0, comm_range=35.0)
    phy = build_cluster_phy(sim, Cluster.from_deployment(dep), sensor_range_m=35.0)
    return sim, phy


def test_crash_silences_radio_permanently():
    sim, phy = _phy()
    plan = FaultPlan(crashes=[NodeCrash(node=1, at=5.0)])
    inj = FaultInjector(sim, phy, plan)
    sim.run(until=10.0)
    trx = phy.trx(1)
    assert inj.is_dead(1)
    assert trx.dead
    assert trx.meter.state is RadioState.SLEEP
    trx.wake()  # a dead radio ignores wake attempts
    assert trx.meter.state is RadioState.SLEEP
    assert inj.death_times() == {1: 5.0}


def test_crash_is_fail_stop_not_retroactive():
    sim, phy = _phy()
    FaultInjector(sim, phy, FaultPlan(crashes=[NodeCrash(node=1, at=5.0)]))
    sim.run(until=4.0)
    assert not phy.trx(1).dead  # alive until its hour comes
    sim.run(until=6.0)
    assert phy.trx(1).dead


def test_stun_recovers_after_duration():
    sim, phy = _phy()
    plan = FaultPlan(stuns=[TransientStun(node=1, at=2.0, duration=3.0)])
    inj = FaultInjector(sim, phy, plan)
    sim.run(until=3.0)
    assert 1 in inj.stunned
    assert phy.trx(1).meter.state is RadioState.SLEEP
    sim.run(until=6.0)
    assert 1 not in inj.stunned
    assert not phy.trx(1).dead
    assert phy.trx(1).meter.state is RadioState.IDLE  # back to listening
    kinds = [e.kind for e in inj.events]
    assert kinds == ["stun", "recover"]


def test_battery_depletion_kills_listening_node():
    sim, phy = _phy()
    # Listening burns energy constantly; a tiny budget dies fast.
    plan = FaultPlan(batteries=[BatteryDepletion(node=0, capacity_j=0.01, check_interval=0.05)])
    inj = FaultInjector(sim, phy, plan)
    sim.run(until=60.0)
    assert inj.is_dead(0)
    death = inj.death_times()[0]
    meter = phy.trx(0).meter
    # Died roughly when idle-listen power * t crossed capacity (one check late at most).
    expected = 0.01 / meter.params.idle_w
    assert death == pytest.approx(expected, abs=0.05)
    assert [e.kind for e in inj.events] == ["battery-death"]


def test_battery_never_fires_with_ample_capacity():
    sim, phy = _phy()
    plan = FaultPlan(batteries=[BatteryDepletion(node=0, capacity_j=1e9)])
    inj = FaultInjector(sim, phy, plan)
    sim.run(until=5.0)
    assert not inj.dead
    assert inj.events == []


def test_dead_node_does_not_transmit():
    sim, phy = _phy()
    FaultInjector(sim, phy, FaultPlan(crashes=[NodeCrash(node=0, at=1.0)]))
    heard: list[Frame] = []
    phy.trx(1).on_receive(lambda frame, p: heard.append(frame))

    def try_send():
        trx = phy.trx(0)
        if not trx.is_sleeping and not trx.is_transmitting:
            trx.transmit(
                Frame(ftype=FrameType.DATA, src=0, dst=1, size_bytes=20, payload=None)
            )

    sim.at(0.5, try_send)  # before death: heard
    sim.at(2.0, try_send)  # after death: radio is dark, nothing sent
    sim.run(until=3.0)
    assert len(heard) == 1


def test_injector_rejects_unknown_sensor():
    sim, phy = _phy(n=3)
    with pytest.raises(ValueError, match="cluster has 3"):
        FaultInjector(sim, phy, FaultPlan(crashes=[NodeCrash(node=7, at=1.0)]))


def test_bursty_plan_installs_link_loss_on_medium():
    sim, phy = _phy()
    assert phy.medium.link_loss is None
    inj = FaultInjector(sim, phy, FaultPlan(bursty_links=BurstyLinks()))
    assert phy.medium.link_loss is inj.link_loss
    assert inj.link_loss is not None


def test_empty_plan_schedules_nothing():
    sim, phy = _phy()
    before = sim.pending_count
    inj = FaultInjector(sim, phy, FaultPlan())
    assert inj.events == []
    assert inj.link_loss is None
    assert phy.medium.link_loss is None
    assert sim.pending_count == before


# -- the drift step (cluster mobility faults and the field share it) -----------

BOX = (0.0, 50.0, 0.0, 10.0)  # (xmin, xmax, ymin, ymax)


def _walkers(n=6, seed=3):
    positions = np.column_stack([np.linspace(0.0, 50.0, n), np.full(n, 5.0)])
    return positions, {node: mobility_rng(seed, node) for node in range(n)}


def test_drift_step_reflects_every_node_into_its_bounds():
    positions, rngs = _walkers()
    for _ in range(25):  # steps far longer than the 10 m side
        before = positions.copy()
        drift_step(positions, range(6), rngs, 40.0, BOX)
        assert ((positions[:, 0] >= 0.0) & (positions[:, 0] <= 50.0)).all()
        assert ((positions[:, 1] >= 0.0) & (positions[:, 1] <= 10.0)).all()
        # reflection never lengthens a step
        assert (np.hypot(*(positions - before).T) <= 40.0).all()


def test_skipping_a_node_leaves_every_other_node_where_it_would_be():
    every, rngs = _walkers()
    some, other_rngs = _walkers()
    start = some[2].copy()
    drift_step(every, range(6), rngs, 8.0, BOX)
    drift_step(some, [0, 1, 3, 4, 5], other_rngs, 8.0, BOX)
    assert np.array_equal(np.delete(every, 2, axis=0), np.delete(some, 2, axis=0))
    assert np.array_equal(some[2], start)


def test_drift_step_adds_each_move_onto_the_running_total_in_node_order():
    positions, rngs = _walkers()
    before = positions.copy()
    total = drift_step(positions, range(6), rngs, 8.0, BOX, total=100.0)
    expected = 100.0
    for node in range(6):
        expected += math.hypot(*(positions[node] - before[node]))
    assert total == expected
    assert drift_step(positions, [], rngs, 8.0, BOX, total=total) == total

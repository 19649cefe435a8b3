"""Online re-clustering: triggers, tracker, discovery, and the re-form pass.

Pure-computation layer (DESIGN.md §11): the MAC owns *when* these run; here
we pin down *what* they decide and produce — trigger semantics per reason,
discovery against the live medium (including after the positions moved),
and the re-form's exclusion/admission contract.
"""

import numpy as np
import pytest

from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.topology import (
    StalenessTracker,
    StalenessTrigger,
    discovered_cluster,
    reform_cluster,
)


# -- trigger validation --------------------------------------------------------


def test_trigger_defaults_are_armed():
    t = StalenessTrigger()
    assert t.membership_delta == 1
    assert t.repair_fallbacks == 3
    assert t.overload_factor == 0.0
    assert t.period_cycles == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"membership_delta": -1},
        {"repair_fallbacks": -1},
        {"overload_factor": -0.5},
        {"period_cycles": -2},
    ],
)
def test_trigger_rejects_negatives(kwargs):
    with pytest.raises(ValueError):
        StalenessTrigger(**kwargs)


def test_trigger_zero_means_disabled():
    # A pure-periodic policy must be expressible: every observed-staleness
    # condition off, only the cadence armed.
    t = StalenessTrigger(membership_delta=0, repair_fallbacks=0, period_cycles=2)
    tracker = StalenessTracker(t)
    tracker.note_join(5)
    tracker.note_repair()
    assert tracker.due() is None  # disabled conditions never fire
    tracker.note_cycle()
    assert tracker.due() is None
    tracker.note_cycle()
    assert tracker.due() == "periodic"


# -- tracker / due() semantics -------------------------------------------------


def test_membership_delta_counts_joins_and_leaves():
    tracker = StalenessTracker(StalenessTrigger(membership_delta=2))
    tracker.note_join(9)
    assert tracker.due() is None
    tracker.note_leave(3)
    assert tracker.due() == "membership"


def test_repair_fallbacks_fire_after_threshold():
    tracker = StalenessTracker(
        StalenessTrigger(membership_delta=0, repair_fallbacks=2)
    )
    tracker.note_repair()
    assert tracker.due() is None
    tracker.note_repair()
    assert tracker.due() == "repairs"


def test_overload_consults_loaded_relays_only():
    tracker = StalenessTracker(
        StalenessTrigger(membership_delta=0, repair_fallbacks=0, overload_factor=2.0)
    )
    balanced = np.array([0.0, 3.0, 3.0, 3.0])  # zeros are non-relays
    assert tracker.due(balanced) is None
    skewed = np.array([0.0, 9.0, 1.0, 1.0])  # 9 >= 2.0 * mean(9,1,1)
    assert tracker.due(skewed) == "overload"
    assert tracker.due(None) is None  # no loads, no opinion


def test_membership_outranks_periodic():
    tracker = StalenessTracker(StalenessTrigger(period_cycles=1))
    tracker.note_cycle()
    tracker.note_join(0)
    assert tracker.due() == "membership"


def test_reset_clears_counters():
    tracker = StalenessTracker(StalenessTrigger(period_cycles=1))
    tracker.note_join(1)
    tracker.note_repair()
    tracker.note_cycle()
    tracker.reset()
    assert tracker.due() is None
    assert (
        tracker.joins_pending,
        tracker.repairs_pending,
        tracker.cycles_since_reform,
    ) == (0, 0, 0)


# -- discovery against the live medium -----------------------------------------


@pytest.fixture(scope="module")
def finished_run():
    return run_polling_simulation(
        PollingSimConfig(n_sensors=12, n_cycles=2, seed=5)
    )


def test_discovered_cluster_matches_deployment(finished_run):
    phy = finished_run.phy
    fresh = discovered_cluster(phy)
    n = phy.n_sensors
    assert fresh.hears.shape == (n, n)
    assert fresh.head_hears.shape == (n,)
    np.testing.assert_array_equal(fresh.positions, phy.medium.positions[:n])
    # Nothing moved since deploy, so discovery reproduces the formed graph.
    np.testing.assert_array_equal(fresh.hears, phy.cluster.hears)
    np.testing.assert_array_equal(fresh.head_hears, phy.cluster.head_hears)
    # Demand and energy are carried over, not reset.
    np.testing.assert_array_equal(fresh.packets, phy.cluster.packets)


def test_discovered_cluster_sees_moved_positions(finished_run):
    phy = finished_run.phy
    moved = phy.medium.positions.copy()
    moved[0] = [1e6, 1e6]  # node 0 walks out of every link's range
    phy.medium.update_positions(moved)
    try:
        fresh = discovered_cluster(phy)
        assert not fresh.hears[0].any()
        assert not fresh.hears[:, 0].any()
        assert not fresh.head_hears[0]
        np.testing.assert_array_equal(fresh.positions[0], [1e6, 1e6])
    finally:
        moved[0] = phy.cluster.positions[0]
        phy.medium.update_positions(moved)


# -- the re-form pass ----------------------------------------------------------


def test_reform_excludes_and_admits(finished_run):
    phy = finished_run.phy
    result = reform_cluster(phy, excluded={2}, admitted={7})
    assert result.excluded == frozenset({2})
    assert result.admitted == frozenset({7})
    plan = result.routing.routing_plan()
    assert 2 not in plan.paths
    for path in plan.paths.values():
        assert 2 not in path
    # Everyone else still reachable on this dense deployment.
    covered = set(plan.paths) | set(result.repair.uncovered)
    assert covered == set(range(phy.n_sensors)) - {2}


def test_reform_with_no_exclusions_covers_everyone(finished_run):
    phy = finished_run.phy
    result = reform_cluster(phy, excluded=set())
    assert result.repair.uncovered == frozenset()
    assert set(result.routing.routing_plan().paths) == set(range(phy.n_sensors))


def test_a_recluster_that_loses_a_queued_packet_breaks_queue_conservation(
    monkeypatch,
):
    """A re-form reshapes routing state, never buffered data: a rediscovery
    that drops one queued packet records one ``dynamic.queue-conservation``."""
    from repro import validate
    from repro.mac import pollmac

    mac = run_polling_simulation(PollingSimConfig(n_sensors=12, n_cycles=2, seed=5)).mac
    queued = [agent for agent in mac.sensors if agent.own_queue]
    assert queued, "the run must end with queued packets to lose"
    rediscover = pollmac.discovered_cluster

    def lossy(phy):
        queued[0].own_queue.pop()
        return rediscover(phy)

    monkeypatch.setattr(pollmac, "discovered_cluster", lossy)
    with validate.warn(), validate.MONITOR.capture() as found:
        with pytest.warns(validate.InvariantWarning):
            mac._recluster("membership")
    assert [v.invariant for v in found] == ["dynamic.queue-conservation"]


# -- field-scope handoff planning (DESIGN.md §13) ------------------------------
# The field-level analogues live in repro.topology.handoff; their execution
# side (radio retunes, queue transplant, crash safety) is tested in
# tests/net/test_handoff.py — here we pin the pure decisions.

from repro.topology import (  # noqa: E402
    HandoffMove,
    plan_field_reform,
    quantization_head_step,
    serving_staleness,
)


def _two_head_field():
    sensors = np.array(
        [[5.0, 0.0], [15.0, 0.0], [85.0, 0.0], [95.0, 0.0], [55.0, 0.0]]
    )
    heads = np.array([[0.0, 0.0], [100.0, 0.0]])
    serving = np.array([0, 0, 1, 1, 0])  # sensor 4 drifted toward head 1
    return sensors, heads, serving


_PAIR = np.array([[0.0, 0.0], [10.0, 0.0]])
_PAIR_HEADS = np.array([[0.0, 1.0], [10.0, 1.0]])


@pytest.mark.parametrize(
    "sensors, heads, serving, expected",
    [
        pytest.param(_PAIR, _PAIR_HEADS, np.array([0, 1]), 0.0, id="fresh"),
        # sensor 0 would pick head 0 today
        pytest.param(_PAIR, _PAIR_HEADS, np.array([1, 1]), 0.5, id="moved"),
        pytest.param(np.empty((0, 2)), np.empty((0, 2)), np.empty(0), 0.0, id="empty"),
    ],
)
def test_serving_staleness_with_every_head_live(sensors, heads, serving, expected):
    """With every head live, the gauge is the fraction of sensors whose
    nearest head is not the one serving them."""
    assert serving_staleness(sensors, heads, serving) == expected


def test_serving_staleness_counts_nearest_live_head():
    sensors, heads, serving = _two_head_field()
    assert serving_staleness(sensors, heads, serving) == pytest.approx(0.2)
    # with head 1 dead: sensor 4's nearest *live* head becomes its serving
    # head (no longer stale), but head 1's two orphans now count — their
    # nearest live head is 0 while their serving head is gone (the debt the
    # failover path owes)
    assert serving_staleness(sensors, heads, serving, live_heads=[0]) == pytest.approx(0.4)


def _field_boundary(tracker: StalenessTracker, misassigned: int) -> str | None:
    """One field boundary, fed as ``FieldCoordinator._prepare`` feeds
    its tracker: count the cycle, set the membership delta to the count
    misassigned now, ask for a verdict."""
    tracker.note_cycle()
    tracker.joins_pending = misassigned
    return tracker.due()


def test_field_tracker_reuses_trigger_semantics():
    tr = StalenessTracker(StalenessTrigger(membership_delta=2, repair_fallbacks=0))
    assert _field_boundary(tr, 1) is None
    # misassignment replaces, never accumulates: 1 then 1 stays below 2
    assert _field_boundary(tr, 1) is None
    assert _field_boundary(tr, 2) == "membership"
    tr.reset()  # a commit
    assert _field_boundary(tr, 1) is None


def test_field_tracker_periodic_mode():
    tr = StalenessTracker(
        StalenessTrigger(membership_delta=0, repair_fallbacks=0, period_cycles=2)
    )
    assert _field_boundary(tr, 0) is None
    assert _field_boundary(tr, 0) == "periodic"


def test_plan_moves_misassigned_sensor_to_nearest_head():
    sensors, heads, serving = _two_head_field()
    plan = plan_field_reform(
        sensors, heads, serving, reason="membership", live_heads=[0, 1]
    )
    assert plan.moves == (
        HandoffMove(sensor=4, src=0, dst=1, gain_m=pytest.approx(10.0)),
    )
    assert plan.deferred == ()
    assert plan.staleness == pytest.approx(0.2)


def test_plan_bounds_batch_and_defers_remainder():
    sensors = np.array([[60.0 + i, float(i)] for i in range(6)])
    heads = np.array([[0.0, 0.0], [100.0, 0.0]])
    serving = np.zeros(6, dtype=int)  # all six now closer to head 1
    plan = plan_field_reform(
        sensors, heads, serving, reason="membership", live_heads=[0, 1], max_moves=4
    )
    assert plan.n_moves == 4 and len(plan.deferred) == 2
    # ranked by gain: the furthest-drifted sensors move first
    gains = [m.gain_m for m in plan.moves + plan.deferred]
    assert gains == sorted(gains, reverse=True)


def test_plan_skips_frozen_and_dead_source_sensors():
    sensors, heads, serving = _two_head_field()
    frozen = plan_field_reform(
        sensors, heads, serving, reason="membership", live_heads=[0, 1],
        frozen_sensors={4},
    )
    assert frozen.moves == ()
    # a dead serving head's sensors belong to the failover path, not handoff
    serving_dead = np.array([1, 1, 1, 1, 1])
    orphanage = plan_field_reform(
        sensors, heads, serving_dead, reason="membership", live_heads=[0]
    )
    assert orphanage.moves == ()


def test_quantization_step_bounded_and_pure():
    sensors = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
    heads = np.array([[0.0, 0.0], [200.0, 0.0]])
    before = heads.copy()
    stepped = quantization_head_step(sensors, heads, live_heads=[0, 1], max_step_m=5.0)
    assert np.array_equal(heads, before)  # input never mutated
    # head 0 owns all three sensors; centroid is (20, 0), clipped to 5 m
    assert stepped[0] == pytest.approx([5.0, 0.0])
    # head 1 has an empty cell and stays put
    assert stepped[1] == pytest.approx([200.0, 0.0])
    # zero budget is the identity
    assert np.array_equal(
        quantization_head_step(sensors, heads, [0, 1], 0.0), heads
    )


def test_plan_folds_head_step_into_assignment():
    # with a large step, head 0 walks to its cell centroid before assigning
    sensors = np.array([[40.0, 0.0], [50.0, 0.0]])
    heads = np.array([[0.0, 0.0], [200.0, 0.0]])
    serving = np.array([0, 0])
    plan = plan_field_reform(
        sensors, heads, serving, reason="periodic", live_heads=[0, 1],
        head_step_m=50.0,
    )
    assert plan.moves == ()  # after the step nobody is misassigned
    assert plan.head_positions[0] == pytest.approx([45.0, 0.0])


# -- re-clustering carryover across a cross-cluster handoff --------------------
# Blacklists, departed-node exclusions and suspect evidence must survive a
# field re-form: the evidence is about the node, not about who polls it.


def _handoff_carryover_result():
    from repro import validate
    from repro.net import MultiClusterConfig, run_multicluster_simulation

    cfg = MultiClusterConfig(
        n_cycles=8, seed=2, mobility_speed_mps=3.0,
        handoff="staleness", dead_after_misses=2,
        handoff_trigger=StalenessTrigger(membership_delta=1, repair_fallbacks=0),
    )
    with validate.strict():
        return run_multicluster_simulation(cfg)


def test_handoff_preserves_exclusion_evidence():
    res = _handoff_carryover_result()
    assert res.field_handoffs >= 1
    # after the dust settles every exclusion set refers to local ids that
    # exist, and excluded sensors are outside the active routing
    for mac in res.macs:
        n = mac.phy.n_sensors
        excl = mac.blacklisted | mac.departed | mac.absent
        assert all(0 <= l < n for l in excl)
        assert all(0 <= l < n for l in mac._suspect_misses)
        covered = {s for s in mac.routing.flow_paths}
        assert not (covered & mac.blacklisted)


def test_reform_membership_remaps_evidence_to_new_local_ids(monkeypatch):
    """A blacklisted sensor keeps its blacklist entry when a field re-form
    shifts its local id (blacklisted sensors never move themselves; a
    member leaving ahead of them in the roster renumbers them)."""
    from repro.mac.pollmac import PollingClusterMac

    reforms = []
    take_roster = PollingClusterMac.take_roster

    def spy(mac, new_phy, agents, cause, admitted=(), **evidence):
        assert cause == "field-reform"  # no head crashes in this run
        old_ids = [int(g) for g in mac.phy.index_map[:-1]]
        before = {old_ids[l]: l for l in mac.blacklisted}
        take_roster(mac, new_phy, agents, cause, admitted, **evidence)
        new_ids = [int(g) for g in mac.phy.index_map[:-1]]
        reforms.append((before, {new_ids[l]: l for l in mac.blacklisted}))

    monkeypatch.setattr(PollingClusterMac, "take_roster", spy)
    _handoff_carryover_result()
    assert reforms
    shifted = 0
    for before, after in reforms:
        # the same sensors stay blacklisted, each under its current local id
        assert set(after) == set(before)
        shifted += sum(after[g] != before[g] for g in before)
    assert shifted, "no re-form renumbered a blacklisted sensor"

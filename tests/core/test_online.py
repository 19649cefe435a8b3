"""Tests for the Table-1 on-line scheduler: correctness, loss, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BernoulliLoss,
    OnlinePollingScheduler,
    RequestState,
    makespan_lower_bound,
)
from repro.mac.base import geometric_oracle
from repro.routing import RoutingPlan, solve_min_max_load
from repro.topology import HEAD, Cluster, uniform_square

from ..conftest import AllCompatibleOracle


def test_fig2_two_slots(fig2_cluster, fig2_oracle):
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    result = OnlinePollingScheduler.poll(plan, fig2_oracle)
    assert result.makespan == 2
    result.schedule.validate(list(result.pool), fig2_oracle)


def test_sequential_when_nothing_compatible(fig2_cluster):
    from repro.interference import TabulatedOracle

    oracle = TabulatedOracle([], valid_links=[(1, 0), (0, HEAD), (2, HEAD)])
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    result = OnlinePollingScheduler.poll(plan, oracle)
    assert result.makespan == 3  # no concurrency possible


def test_single_hop_cluster_one_packet_per_slot(star_cluster, all_compatible):
    plan = solve_min_max_load(star_cluster).routing_plan()
    result = OnlinePollingScheduler.poll(plan, all_compatible)
    # head receives one packet per slot: 5 packets -> 5 slots (head bound)
    assert result.makespan == star_cluster.total_packets
    result.schedule.validate(list(result.pool), all_compatible)


def test_chain_pipeline_no_delay(chain_cluster, all_compatible):
    plan = solve_min_max_load(chain_cluster).routing_plan()
    result = OnlinePollingScheduler.poll(plan, all_compatible)
    result.schedule.validate(list(result.pool), all_compatible)
    # chain of 4, one packet each: s0 participates in 4 sends + 3 receives,
    # one per slot -> 7 slots is optimal, and the greedy scheduler finds it.
    assert result.makespan == 7


def test_unusable_link_rejected_at_construction(fig2_cluster):
    from repro.interference import TabulatedOracle

    oracle = TabulatedOracle([], valid_links=[(0, HEAD), (2, HEAD)])  # (1,0) missing
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    with pytest.raises(ValueError, match="never"):
        OnlinePollingScheduler(plan, oracle)


def test_respects_makespan_lower_bounds():
    for seed in range(5):
        dep = uniform_square(12, seed=seed)
        c = Cluster.from_deployment(dep)
        oracle, c = geometric_oracle(c)
        plan = solve_min_max_load(c).routing_plan()
        scheduler = OnlinePollingScheduler(plan, oracle)
        result = scheduler.run()
        lb = makespan_lower_bound(list(result.pool), oracle.max_group_size)
        assert result.makespan >= lb
        result.schedule.validate(list(result.pool), oracle)


def test_concurrency_never_exceeds_m():
    dep = uniform_square(20, seed=1)
    c = Cluster.from_deployment(dep)
    oracle, c = geometric_oracle(c, max_group_size=3)
    plan = solve_min_max_load(c).routing_plan()
    result = OnlinePollingScheduler.poll(plan, oracle)
    assert max(result.schedule.concurrency_profile()) <= 3


def test_loss_forces_retries_but_completes(fig2_cluster, fig2_oracle):
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    result = OnlinePollingScheduler.poll(
        plan, fig2_oracle, loss=BernoulliLoss(0.4, seed=11)
    )
    assert result.pool.all_deleted()
    assert result.retransmissions >= 0
    result.schedule.validate(list(result.pool), fig2_oracle)


def test_retransmissions_never_negative_when_sensors_die_unpolled():
    """Requests written off before their first attempt count no re-polls."""
    geo = Cluster.from_deployment(uniform_square(12, seed=0))
    oracle, c = geometric_oracle(geo)
    plan = solve_min_max_load(c.with_packets(np.full(12, 3))).routing_plan()
    result = OnlinePollingScheduler(
        plan, oracle, loss=BernoulliLoss(0.6, seed=1), dead_after_misses=1
    ).run()
    assert result.total_attempts < len(result.pool.requests)
    assert result.retransmissions == sum(
        max(0, r.attempts - 1) for r in result.pool.requests
    )
    assert result.retransmissions >= 0


def test_loss_makespan_dominates_lossless(chain_cluster, all_compatible):
    plan = solve_min_max_load(chain_cluster).routing_plan()
    clean = OnlinePollingScheduler.poll(plan, all_compatible)
    lossy = OnlinePollingScheduler.poll(
        plan, all_compatible, loss=BernoulliLoss(0.5, seed=3)
    )
    assert lossy.makespan >= clean.makespan
    assert lossy.total_attempts > clean.total_attempts


def test_retry_limit_abandons_packets(fig2_cluster, fig2_oracle):
    scheduler = OnlinePollingScheduler(
        solve_min_max_load(fig2_cluster).routing_plan(),
        fig2_oracle,
        loss=BernoulliLoss(0.95, seed=5),
        retry_limit=3,
    )
    result = scheduler.run()
    # with 95% loss and 3 retries, something almost surely failed
    assert scheduler.failed or result.pool.all_deleted()
    for rid in scheduler.failed:
        assert scheduler.pool.by_id(rid).state is RequestState.DELETED


def test_retry_exhaustion_reported_in_result(fig2_cluster, fig2_oracle):
    scheduler = OnlinePollingScheduler(
        solve_min_max_load(fig2_cluster).routing_plan(),
        fig2_oracle,
        loss=BernoulliLoss(0.95, seed=5),
        retry_limit=3,
    )
    result = scheduler.run()
    assert result.failed_ids == frozenset(scheduler.failed)
    assert result.n_failed == len(scheduler.failed)
    assert result.delivered_count == len(result.pool.requests) - result.n_failed
    assert result.delivery_ratio == pytest.approx(
        result.delivered_count / len(result.pool.requests)
    )


def test_retry_limit_none_retries_forever(fig2_cluster, fig2_oracle):
    # retry_limit=None is "retry until it arrives": heavy loss slows the
    # run down but nothing is ever abandoned.
    result = OnlinePollingScheduler.poll(
        solve_min_max_load(fig2_cluster).routing_plan(),
        fig2_oracle,
        loss=BernoulliLoss(0.8, seed=7),
    )
    assert result.failed_ids == frozenset()
    assert result.delivery_ratio == 1.0
    assert result.pool.all_deleted()


def test_dead_after_misses_blacklists_silent_sensor(fig2_cluster, fig2_oracle):
    """A sensor that never answers is declared dead after K consecutive
    missed expected arrivals; its requests land in failed_ids."""
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    ext = OnlinePollingScheduler(plan, fig2_oracle, dead_after_misses=3)
    dead_sensor = 1  # two-hop sensor: stays silent the whole phase
    t = 0
    while not ext.all_done and t < 200:
        group = ext.external_step(t, set())  # seed arrivals below
        delivered = {
            tx.request_id
            for tx in ext.schedule.group_at(t)
            if tx.receiver == HEAD
            and ext.pool.by_id(tx.request_id).sensor != dead_sensor
        }
        t += 1
        if delivered:
            group = ext.external_step(t, delivered)
            t += 1
    assert ext.all_done
    assert dead_sensor in ext.blacklist
    failed_sensors = {ext.pool.by_id(rid).sensor for rid in ext.failed}
    assert failed_sensors == {dead_sensor}


def test_dead_after_misses_validation(fig2_cluster, fig2_oracle):
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    with pytest.raises(ValueError, match="dead_after_misses"):
        OnlinePollingScheduler(plan, fig2_oracle, dead_after_misses=0)


def test_delivery_resets_miss_streak(fig2_cluster, fig2_oracle):
    """Intermittent losses below K consecutive misses never blacklist."""
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    ext = OnlinePollingScheduler(plan, fig2_oracle, dead_after_misses=2)
    t = 0
    dropped: set[int] = set()
    delivered: set[int] = set()
    while not ext.all_done and t < 200:
        group = ext.external_step(t, delivered)
        delivered = set()
        for tx in group:
            if tx.receiver == HEAD:
                if tx.request_id not in dropped:
                    dropped.add(tx.request_id)  # lose first try only
                else:
                    delivered.add(tx.request_id)
        t += 1
    if delivered:
        ext.external_step(t, delivered)
    assert ext.all_done
    assert ext.blacklist == set()
    assert ext.failed == set()


def test_external_stepping_equivalent_to_internal(fig2_cluster, fig2_oracle):
    """Driving external_step with perfect delivery mirrors run() exactly."""
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    internal = OnlinePollingScheduler.poll(plan, fig2_oracle)

    ext = OnlinePollingScheduler(plan, fig2_oracle)
    t = 0
    delivered: set[int] = set()
    groups = []
    while not ext.all_done and t < 100:
        group = ext.external_step(t, delivered)
        groups.append(group)
        # perfect channel: every final hop in this slot arrives
        delivered = {
            tx.request_id for tx in group if tx.receiver == HEAD
        }
        t += 1
    assert ext.schedule.makespan() == internal.makespan
    for a, b in zip(ext.schedule.slots, internal.schedule.slots):
        assert a == b


def test_external_stepping_with_losses_repolls(fig2_cluster, fig2_oracle):
    plan = solve_min_max_load(fig2_cluster).routing_plan()
    ext = OnlinePollingScheduler(plan, fig2_oracle)
    t = 0
    delivered: set[int] = set()
    drop_first = True
    while not ext.all_done and t < 100:
        group = ext.external_step(t, delivered)
        delivered = set()
        for tx in group:
            if tx.receiver == HEAD:
                if drop_first:
                    drop_first = False  # swallow the first arrival
                else:
                    delivered.add(tx.request_id)
        t += 1
    assert ext.all_done
    attempts = ext.pool.total_attempts()
    assert attempts == len(ext.pool.requests) + 1  # exactly one re-poll


def test_multi_packet_sensors(star_cluster, all_compatible):
    c = star_cluster.with_packets([3, 0, 0, 0, 2])
    plan = solve_min_max_load(c).routing_plan()
    result = OnlinePollingScheduler.poll(plan, all_compatible)
    assert result.makespan == 5
    assert len(result.pool) == 5


@given(st.integers(0, 40))
@settings(max_examples=20, deadline=None)
def test_random_clusters_always_valid_schedules(seed):
    """Property: on random geometric clusters, the greedy scheduler always
    produces a schedule that passes full validation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 14))
    dep = uniform_square(n, seed=seed)
    c = Cluster.from_deployment(dep).with_packets(rng.integers(0, 3, size=n))
    oracle, c = geometric_oracle(c)
    if c.total_packets == 0:
        return
    plan = solve_min_max_load(c).routing_plan()
    result = OnlinePollingScheduler.poll(plan, oracle)
    result.schedule.validate(list(result.pool), oracle)
    assert result.makespan >= makespan_lower_bound(
        list(result.pool), oracle.max_group_size
    )

"""End-to-end fault & recovery: the ISSUE's acceptance scenarios.

A seeded cluster run with a plan that kills a routing relay mid-run must
complete without error, report degraded delivery and surviving coverage,
be exactly repeatable, and — crucially — an empty plan must reproduce the
unfaulted run bit for bit.
"""

from collections import Counter

import pytest

from repro.faults import BurstyLinks, FaultPlan, NodeCrash, TransientStun
from repro.metrics import degradation_report
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation


def _relay_of(result):
    plan = result.mac.routing.routing_plan()
    relays = sorted({n for p in plan.paths.values() for n in p[1:-1] if n >= 0})
    assert relays, "seed must produce a multi-hop topology"
    return relays[0]


@pytest.fixture(scope="module")
def baseline():
    return run_polling_simulation(PollingSimConfig(n_sensors=30, n_cycles=8, seed=3))


@pytest.fixture(scope="module")
def crashed(baseline):
    victim = _relay_of(baseline)
    # t=20.3 lands inside cycle 2's data phase: in-flight requests through
    # the victim exhaust their retry budgets -> delivery ratio < 1.
    plan = FaultPlan(crashes=[NodeCrash(node=victim, at=20.3)])
    cfg = PollingSimConfig(n_sensors=30, n_cycles=8, seed=3, fault_plan=plan)
    return victim, run_polling_simulation(cfg)


def test_relay_crash_completes_and_degrades(crashed, baseline):
    victim, res = crashed
    deg = res.degradation
    assert deg.delivery_ratio < 1.0
    assert deg.failed > 0
    assert res.packets_delivered < baseline.packets_delivered
    assert deg.surviving_coverage < 1.0
    assert deg.dead_true == frozenset({victim})


def test_head_localizes_exactly_the_dead_relay(crashed):
    victim, res = crashed
    deg = res.degradation
    assert deg.blacklisted == frozenset({victim})
    assert deg.false_positives == frozenset()
    assert deg.missed_deaths == frozenset()
    assert deg.route_repairs >= 1


def test_sensors_behind_dead_relay_are_rerouted_or_reported(crashed):
    victim, res = crashed
    # every sensor is accounted for: delivered-to again, or unreachable
    plan = res.mac.routing.routing_plan()
    for s in range(res.config.n_sensors):
        if s == victim or s in res.mac.unreachable:
            assert s not in plan.paths
        else:
            assert victim not in plan.paths.get(s, ())


def test_faulted_run_is_deterministic(crashed):
    victim, res = crashed
    again = run_polling_simulation(res.config)
    assert again.packets_delivered == res.packets_delivered
    assert again.mac.packets_failed == res.mac.packets_failed
    assert again.elapsed == res.elapsed
    assert again.degradation == res.degradation


def test_empty_plan_bit_for_bit_identical(baseline):
    cfg = PollingSimConfig(n_sensors=30, n_cycles=8, seed=3, fault_plan=FaultPlan())
    res = run_polling_simulation(cfg)
    assert res.injector is None
    assert res.packets_delivered == baseline.packets_delivered
    assert res.mac.packets_failed == baseline.mac.packets_failed
    assert res.elapsed == baseline.elapsed
    assert res.active_fraction.tolist() == baseline.active_fraction.tolist()
    assert [cs.duty_time for cs in res.mac.cycle_stats] == [
        cs.duty_time for cs in baseline.mac.cycle_stats
    ]
    # (seq is a process-global counter, not per-run; compare the rest)
    base_pkts = [(p.origin, p.created) for p in baseline.mac.delivered_packets()]
    res_pkts = [(p.origin, p.created) for p in res.mac.delivered_packets()]
    assert res_pkts == base_pkts


def test_no_fault_run_reports_clean_degradation(baseline):
    deg = baseline.degradation
    assert deg.delivery_ratio == 1.0
    assert deg.surviving_coverage == 1.0
    assert deg.blacklisted == frozenset()
    assert deg.stranded_packets == 0
    assert deg.route_repairs == 0


def test_stun_blacklists_then_wrongly_but_conservatively(baseline):
    """A long stun is indistinguishable from death under fail-stop
    assumptions: the head writes the node off (documented behavior), and
    the run still completes with partial coverage."""
    victim = _relay_of(baseline)
    plan = FaultPlan(stuns=[TransientStun(node=victim, at=20.3, duration=30.0)])
    cfg = PollingSimConfig(n_sensors=30, n_cycles=8, seed=3, fault_plan=plan)
    res = run_polling_simulation(cfg)
    deg = res.degradation
    assert deg.dead_true == frozenset()  # it did recover eventually
    assert victim in deg.blacklisted
    assert deg.false_positives == deg.blacklisted


def test_bursty_links_degrade_but_complete():
    plan = FaultPlan(bursty_links=BurstyLinks())
    cfg = PollingSimConfig(
        n_sensors=20, n_cycles=6, seed=3, fault_plan=plan, dead_after_misses=6
    )
    res = run_polling_simulation(cfg)
    assert res.injector is not None
    stats = res.injector.link_loss.stats()
    assert sum(lost for _, lost in stats.values()) > 0  # fades actually bit
    assert res.packets_delivered > 0
    again = run_polling_simulation(cfg)
    assert again.packets_delivered == res.packets_delivered


@pytest.mark.xfail(
    strict=True,
    reason="known bug (DESIGN.md §5b): a relay that misses both the SLEEP "
    "and the next WAKEUP keeps its relay_buffer, whose request ids restart "
    "every phase, and relays a stale packet again next cycle",
)
def test_bursty_links_never_deliver_a_packet_twice():
    plan = FaultPlan(bursty_links=BurstyLinks())
    res = run_polling_simulation(
        PollingSimConfig(n_sensors=10, n_cycles=3, seed=749, fault_plan=plan)
    )
    # seq comes from a process-global counter: identify packets by
    # (origin, created) instead.  Sensor 6's packet arrives twice, both
    # times as request 6, hop 2, from relay 2 (t≈10.10 and t≈20.08).
    delivered = Counter((p.origin, p.created) for p in res.mac.delivered_packets())
    assert max(delivered.values()) == 1


def test_degradation_report_function_matches_property(crashed):
    _, res = crashed
    assert degradation_report(res.mac, res.injector) == res.degradation

"""Exact report values for small seeded runs (refactor pins).

The degradation, availability and staleness reports and the field's
handoff/adoption timeline are reductions over what the MAC and the field
coordinators record during a run.  Every value below was captured from the
implementation these reports were first written against; a change to how
runs are *recorded* must reproduce each one exactly, floats included.
"""

import pytest

from repro.faults import BurstyLinks, FaultPlan, Mobility, NodeCrash, NodeJoin, NodeLeave
from repro.metrics import (
    AvailabilityReport,
    DegradationReport,
    FaultRecovery,
    StalenessReport,
)
from repro.net import (
    AdoptionEvent,
    FieldHandoffEvent,
    MultiClusterConfig,
    run_multicluster_simulation,
)
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation

CONFIGS = {
    # A relay dies in a sleep phase; k=1 fails its victims over in-cycle.
    "relay-crash": PollingSimConfig(
        n_sensors=30,
        n_cycles=12,
        seed=3,
        fault_plan=FaultPlan(crashes=[NodeCrash(node=5, at=39.3)]),
        backup_k=1,
    ),
    # A join, an announced leave and drift, with staleness re-clustering.
    "churn-mobility": PollingSimConfig(
        n_sensors=24,
        n_cycles=12,
        seed=7,
        fault_plan=FaultPlan(
            joins=[NodeJoin(at=18.0, position=(60.0, 150.0))],
            leaves=[NodeLeave(node=4, at=27.0)],
            mobility=Mobility(speed_mps=0.4),
        ),
        recluster="staleness",
    ),
    # Gilbert-Elliott loss on every link: false positives and repairs.
    "bursty": PollingSimConfig(
        n_sensors=16,
        n_cycles=8,
        seed=1,
        fault_plan=FaultPlan(bursty_links=BurstyLinks()),
    ),
}

EXPECTED = {
    "relay-crash": (
        DegradationReport(
            n_sensors=30,
            delivered=775,
            failed=0,
            dead_true=frozenset({5}),
            blacklisted=frozenset({5}),
            unreachable=frozenset(),
            stranded_packets=23,
            purged_packets=0,
            route_repairs=1,
            undeliverable_pending=0,
        ),
        AvailabilityReport(
            cycle_length=10.0,
            recoveries=(
                FaultRecovery(
                    node=5,
                    kind="crash",
                    at=39.3,
                    affected=(0, 6, 25),
                    recovered_at=40.606039999999716,
                ),
            ),
            in_cycle_failovers=2,
            route_repairs=1,
            cycles_offered=11,
            cycles_delivering=11,
        ),
        StalenessReport(
            n_cycles=12,
            reclusters=0,
            recluster_reasons={},
            route_repairs=1,
            mean_plan_age_cycles=3.0,
            max_plan_age_cycles=6,
            reform_announce_bytes=0,
            reform_airtime_s=0.0,
            joins_planned=0,
            joins_powered=0,
            joins_admitted=0,
            leaves=0,
            mobility_epochs=0,
            drift_epochs=0,
            total_displacement_m=0.0,
            present_final=29,
            served_final=29,
        ),
    ),
    "churn-mobility": (
        DegradationReport(
            n_sensors=25,
            delivered=543,
            failed=0,
            dead_true=frozenset(),
            blacklisted=frozenset({8, 11, 19}),
            unreachable=frozenset({0, 13, 15}),
            stranded_packets=28,
            purged_packets=0,
            route_repairs=3,
            undeliverable_pending=52,
        ),
        AvailabilityReport(
            cycle_length=10.0,
            recoveries=(),
            in_cycle_failovers=0,
            route_repairs=3,
            cycles_offered=11,
            cycles_delivering=11,
        ),
        StalenessReport(
            n_cycles=12,
            reclusters=3,
            recluster_reasons={"membership": 2, "repairs": 1},
            route_repairs=3,
            mean_plan_age_cycles=1.4166666666666667,
            max_plan_age_cycles=3,
            reform_announce_bytes=140,
            reform_airtime_s=0.0056,
            joins_planned=1,
            joins_powered=1,
            joins_admitted=1,
            leaves=1,
            mobility_epochs=11,
            drift_epochs=0,
            total_displacement_m=534.922886140543,
            present_final=24,
            served_final=18,
        ),
    ),
    "bursty": (
        DegradationReport(
            n_sensors=16,
            delivered=100,
            failed=89,
            dead_true=frozenset(),
            blacklisted=frozenset({3, 5, 8, 11}),
            unreachable=frozenset({4, 6, 7, 10, 14}),
            stranded_packets=0,
            purged_packets=0,
            route_repairs=4,
            undeliverable_pending=83,
        ),
        AvailabilityReport(
            cycle_length=10.0,
            recoveries=(),
            in_cycle_failovers=0,
            route_repairs=4,
            cycles_offered=7,
            cycles_delivering=7,
        ),
        StalenessReport(
            n_cycles=8,
            reclusters=0,
            recluster_reasons={},
            route_repairs=4,
            mean_plan_age_cycles=1.25,
            max_plan_age_cycles=3,
            reform_announce_bytes=0,
            reform_airtime_s=0.0,
            joins_planned=0,
            joins_powered=0,
            joins_admitted=0,
            leaves=0,
            mobility_epochs=0,
            drift_epochs=0,
            total_displacement_m=0.0,
            present_final=16,
            served_final=7,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_single_cluster_reports_are_pinned(name):
    res = run_polling_simulation(CONFIGS[name])
    degradation, availability, staleness = EXPECTED[name]
    assert res.degradation == degradation
    assert res.availability == availability
    assert res.staleness == staleness


def test_field_timeline_is_pinned():
    # Head 0 crashes mid-run, its orphans are adopted, and the staleness
    # trigger later hands drifted sensors between the two survivors.
    res = run_multicluster_simulation(
        MultiClusterConfig(
            n_cycles=6,
            seed=2,
            mobility_speed_mps=4.0,
            handoff="staleness",
            head_failover=True,
            head_crashes=((0, 14.0),),
        )
    )
    assert res.handoff_events == [
        FieldHandoffEvent(time=30.0, sensor=3, src=2, dst=1, state="committed"),
        FieldHandoffEvent(time=30.0, sensor=1, src=2, dst=1, state="committed"),
        FieldHandoffEvent(time=30.0, sensor=54, src=1, dst=2, state="committed"),
        FieldHandoffEvent(time=30.0, sensor=53, src=1, dst=2, state="committed"),
        FieldHandoffEvent(time=30.0, sensor=16, src=2, dst=1, state="committed"),
    ]
    assert res.field_reforms == 1
    assert res.field_handoffs == 5
    assert res.coordinator.adoption_events == [
        AdoptionEvent(
            time=16.0,
            dead_head=0,
            adopter=1,
            sensors=(9, 14, 18, 25, 34, 35, 40, 46, 53, 54),
        ),
        AdoptionEvent(
            time=16.0, dead_head=0, adopter=2, sensors=(3, 7, 15, 23, 32, 36, 51)
        ),
    ]
    assert res.coordinator.crashed == [(0, 14.0)]

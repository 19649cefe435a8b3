"""Exact telemetry summaries of traced single-cluster runs (refactor pins).

Every metric of :meth:`repro.obs.Telemetry.summary` except the wall-clock
``*_wall_s`` histograms is a function of the simulated run, so a change to
how a run's facts reach telemetry must reproduce each name and value below,
floats included, and the violation count.  One run repairs routing around
a crashed relay (the run of ``tests/obs/test_integration.py``); the other
re-clusters under churn and drift, and repairs around departures.
"""

import pytest

from repro.faults import FaultPlan, Mobility, NodeCrash, NodeJoin, NodeLeave
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.obs import Telemetry, use
from repro.topology import StalenessTrigger

CONFIGS = {
    # Sensor 3 is the first relay of the seed-3 plan.
    "relay-crash": PollingSimConfig(
        n_sensors=30,
        n_cycles=8,
        seed=3,
        fault_plan=FaultPlan(crashes=[NodeCrash(node=3, at=20.3)]),
    ),
    "churn-mobility": PollingSimConfig(
        n_sensors=24,
        n_cycles=12,
        seed=7,
        fault_plan=FaultPlan(
            joins=[NodeJoin(at=18.0, position=(60.0, 150.0))],
            leaves=[NodeLeave(node=4, at=27.0)],
            mobility=Mobility(speed_mps=0.4),
        ),
        recluster=StalenessTrigger(),
    ),
}

EXPECTED = {
    "relay-crash": {
        "kernel.events": 2021,
        "mac.ack_slots": 311,
        "mac.cycles": 8,
        "mac.data_slots": 843,
        "mac.energy_j": 3.285529313199609,
        "mac.group_size": 1.1187175043327557,
        "mac.max_group_size": 2,
        "mac.packets_delivered": 479,
        "mac.repair_unreachable": 0.0,
        "mac.retransmissions": 2,
        "mac.route_repairs": 1,
        "mac.scalar_slots": 1,
        "mac.vector_slots": 1153,
        "polling.abandoned": 4,
        "polling.blacklisted": 2,
        "polling.delivered": 644,
        "polling.retries": 4,
        "routing.builds": 2,
        "routing.max_flow_calls": 16,
        "routing.max_load": 6.0,
        "routing.probes": 14,
        "routing.relay_load": 1.9166666666666667,
        "routing.solves": 2,
    },
    "churn-mobility": {
        "kernel.events": 2402,
        "mac.ack_slots": 347,
        "mac.cycles": 12,
        "mac.data_slots": 948,
        "mac.energy_j": 3.7137002619499784,
        "mac.group_size": 1.2046332046332047,
        "mac.joins_seen": 1,
        "mac.leaves_seen": 1,
        "mac.max_group_size": 2,
        "mac.packets_delivered": 543,
        "mac.reclusters": 3,
        "mac.repair_unreachable": 2.0,
        "mac.retransmissions": 0,
        "mac.route_repairs": 3,
        "mac.scalar_slots": 0,
        "mac.vector_slots": 1295,
        "polling.abandoned": 9,
        "polling.blacklisted": 9,
        "polling.delivered": 683,
        "polling.retries": 18,
        "routing.builds": 7,
        "routing.max_flow_calls": 48,
        "routing.max_load": 5.0,
        "routing.probes": 41,
        "routing.relay_load": 1.8,
        "routing.solves": 7,
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_summary_matches_golden(name):
    with use(Telemetry()) as tel:
        run_polling_simulation(CONFIGS[name])
    summary = tel.summary()
    metrics = {
        k: v for k, v in summary["metrics"].items() if not k.endswith("_wall_s")
    }
    assert metrics == EXPECTED[name]
    assert summary["violations"] == 0

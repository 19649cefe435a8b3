"""Benchmarks guarding the dynamic-network machinery's cost.

Two promises: a static run with churn/mobility/re-clustering disabled must
cost the same as before the feature existed (the disabled machinery is
contractually bit-for-bit identical, so any slowdown here is pure overhead
leaking into the off switch), and one ``reform_cluster`` pass — discovery
plus incremental demand migration — must stay cheap enough to run at a
duty-cycle boundary.  The committed BENCH_churn.json baseline holds both
inside the CI 30% regression gate.
"""

from repro.faults import FaultPlan, Mobility, NodeJoin, NodeLeave
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.topology import StalenessTrigger, reform_cluster

CHURN_PLAN = FaultPlan(
    joins=[NodeJoin(at=12.0, position=(60.0, 150.0))],
    leaves=[NodeLeave(node=4, at=22.0)],
    mobility=Mobility(speed_mps=0.4),
)


def test_bench_static_sim_recluster_off(benchmark):
    # The off switch: no dynamic plan, recluster disabled — this is the
    # pre-churn hot path and must not pay for the feature's existence.
    cfg = PollingSimConfig(n_sensors=30, n_cycles=4, seed=3)
    res = benchmark(lambda: run_polling_simulation(cfg))
    assert res.mac.reclusters == 0
    assert res.packets_delivered > 0


def test_bench_churn_sim_staleness(benchmark):
    cfg = PollingSimConfig(
        n_sensors=30,
        n_cycles=4,
        seed=3,
        fault_plan=CHURN_PLAN,
        recluster=StalenessTrigger(),
    )
    res = benchmark(lambda: run_polling_simulation(cfg))
    assert res.mac.reclusters >= 1
    assert res.packets_delivered > 0


def test_bench_reform_kernel(benchmark):
    probe = run_polling_simulation(PollingSimConfig(n_sensors=40, n_cycles=2, seed=0))
    phy = probe.phy
    result = benchmark(lambda: reform_cluster(phy, excluded={3, 11}))
    assert result.repair.solution is not None
    assert 3 not in result.routing.routing_plan().paths

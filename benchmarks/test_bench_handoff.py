"""Benchmarks guarding the field-handoff machinery's cost.

Two promises, mirroring the churn bench: a multi-cluster run with
``handoff="off"`` must cost what it did before the feature existed (off is
contractually bit-for-bit identical, so any slowdown here is coordinator
overhead leaking into the off switch), and the pure planning kernel —
staleness probe, quantization head step, gain-sorted move batch — must
stay cheap enough to run at every duty-cycle boundary.  The committed
BENCH_handoff.json baseline holds both inside the CI 30% regression gate.
"""

import numpy as np

from repro.net.multicluster_sim import MultiClusterConfig, run_multicluster_simulation
from repro.topology.handoff import plan_field_reform


def test_bench_multicluster_handoff_off(benchmark):
    # The off switch: no coordinator is even constructed — this is the
    # pre-handoff hot path and must not pay for the feature's existence.
    cfg = MultiClusterConfig(n_cycles=4, seed=2, mobility_speed_mps=2.0)
    res = benchmark(lambda: run_multicluster_simulation(cfg))
    assert res.coordinator is None
    assert res.packets_delivered > 0


def test_bench_multicluster_handoff_staleness(benchmark):
    cfg = MultiClusterConfig(
        n_cycles=4, seed=2, mobility_speed_mps=2.0, handoff="periodic"
    )
    res = benchmark(lambda: run_multicluster_simulation(cfg))
    assert res.field_reforms >= 1
    assert res.packets_delivered > 0


def test_bench_plan_kernel(benchmark):
    # The boundary-time planning kernel alone, at a field size well above
    # the simulated one so the vectorized distance math is what's timed.
    rng = np.random.default_rng(7)
    n, k = 600, 8
    sensors = rng.uniform(0.0, 1000.0, size=(n, 2))
    heads = rng.uniform(0.0, 1000.0, size=(k, 2))
    serving = rng.integers(0, k, size=n)
    live = list(range(k))

    plan = benchmark(
        lambda: plan_field_reform(
            sensors,
            heads,
            serving,
            reason="staleness",
            live_heads=live,
            max_moves=16,
            head_step_m=5.0,
        )
    )
    assert plan.n_moves == 16
    assert plan.deferred

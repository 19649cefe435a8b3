"""Bench: telemetry overhead on the polling DES (off vs on).

Two medians over the same seeded cluster run: ``off`` is the default
untraced path (the bit-for-bit guarantee makes it the true baseline), ``on``
runs inside a fresh collector's ``obs.use`` scope.  ``check_obs_overhead.py`` holds the ratio
to the 2x budget; ``compare_benchmarks.py`` separately guards the ``off``
median against historical regression like every other bench.
"""

from repro import obs
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation

CONFIG = PollingSimConfig(n_sensors=20, n_cycles=4, seed=7)


def _traced_run():
    with obs.use(obs.Telemetry()):
        return run_polling_simulation(CONFIG)


def test_bench_polling_telemetry_off(benchmark):
    res = benchmark(run_polling_simulation, CONFIG)
    assert res.telemetry is None
    assert res.packets_delivered > 0


def test_bench_polling_telemetry_on(benchmark):
    res = benchmark(_traced_run)
    assert res.telemetry is not None
    assert res.telemetry.spans_of("cycle")
    assert res.packets_delivered > 0

"""Tests for the measurement layer: active time, lifetime, energy."""

import numpy as np
import pytest

from repro.metrics import (
    ActiveTimeConfig,
    EnergyRateModel,
    energy_report,
    evaluate_lifetime_ratio,
    simulate_active_time,
)


# --- active time (Fig 7a engine) ---------------------------------------------------

def fast_cfg(**kw):
    base = dict(n_sensors=10, rate_bps=20.0, n_cycles=6, warmup_cycles=1, seed=0)
    base.update(kw)
    return ActiveTimeConfig(**base)


def test_active_time_monotone_in_rate():
    low = simulate_active_time(fast_cfg(rate_bps=20.0)).active_fraction
    high = simulate_active_time(fast_cfg(rate_bps=80.0)).active_fraction
    assert 0 < low < high <= 1.0


def test_active_time_monotone_in_size():
    small = simulate_active_time(fast_cfg(n_sensors=10)).active_fraction
    big = simulate_active_time(fast_cfg(n_sensors=30)).active_fraction
    assert small < big


def test_saturation_at_extreme_load():
    # Just past the knee: duty exceeds the cycle, periods stretch, the
    # cluster never catches up.  (Far past the knee the backlog compounds
    # geometrically and the run takes unbounded time — by design, so keep
    # the overload mild and the horizon short.)
    res = simulate_active_time(
        fast_cfg(n_sensors=5, rate_bps=2000.0, cycle_length=2.0, n_cycles=5)
    )
    assert res.saturated
    assert res.active_fraction > 0.95


def test_cycles_recorded_with_periods():
    res = simulate_active_time(fast_cfg())
    assert len(res.cycles) == 6
    for rec in res.cycles:
        assert rec.period >= res.config.cycle_length
        assert rec.duty_time > 0


def test_loss_increases_active_time():
    clean = simulate_active_time(fast_cfg(seed=2)).active_fraction
    lossy = simulate_active_time(fast_cfg(seed=2, loss_rate=0.3)).active_fraction
    assert lossy > clean


def test_active_time_deterministic():
    a = simulate_active_time(fast_cfg(seed=5)).active_fraction
    b = simulate_active_time(fast_cfg(seed=5)).active_fraction
    assert a == b


# --- lifetime (Fig 7c engine) ----------------------------------------------------------

def test_lifetime_ratio_above_one_and_grows():
    small = evaluate_lifetime_ratio(n_sensors=12, seed=1)
    large = evaluate_lifetime_ratio(n_sensors=36, seed=1)
    assert small.lifetime_ratio > 0.95
    assert large.lifetime_ratio > small.lifetime_ratio
    assert large.lifetime_ratio > 1.2


def test_lifetime_components_consistent():
    res = evaluate_lifetime_ratio(n_sensors=20, seed=0)
    assert res.max_rate_unsectored > res.max_rate_sectored > 0
    assert res.unsectored_polling_slots >= max(res.sector_polling_slots)
    assert res.n_sectors == len(res.sector_polling_slots)


def test_energy_rate_model_grounding():
    m = EnergyRateModel()
    assert m.c1 > 0 and m.c2 > 0
    # idle-per-slot dwarfs tx-extra-per-packet (the paper's idle-listening point)
    assert m.c2 > m.c1
    assert m.rate(load=2, awake_slots=10) > m.rate(load=2, awake_slots=5)
    assert m.rate(load=5, awake_slots=10) > m.rate(load=2, awake_slots=10)
    assert m.rate(2, 10, wake_events=2) > m.rate(2, 10, wake_events=1)
    assert m.lifetime_cycles(2, 10) == pytest.approx(
        m.energy.battery_j / m.rate(2, 10)
    )


# --- energy report -----------------------------------------------------------------------

def test_energy_report_from_simulation():
    from repro.net import PollingSimConfig, run_polling_simulation

    res = run_polling_simulation(
        PollingSimConfig(n_sensors=6, rate_bps=20.0, cycle_length=4.0, n_cycles=3, seed=1)
    )
    report = energy_report(res.phy)
    assert report.consumed_j.shape == (6,)
    assert (report.consumed_j > 0).all()
    assert report.head_consumed_j > 0
    # dwell times account for the whole run
    total_time = report.active_s + report.sleep_s
    assert np.allclose(total_time, res.elapsed, rtol=1e-6)
    assert 0 < report.mean_active_fraction < 1
    table = report.per_sensor_table()
    assert len(table) == 6 and table[0]["sensor"] == 0


# (cycles.hex(), first sensor to die) on a 30-sensor cluster per seed,
# unsectored then sectored, captured while cycles_to_first_death still ran
# its own copy of the Fig. 7c computation.
FIRST_DEATH = {
    0: (("0x1.4f1c7e258dbd8p+14", 1), ("0x1.61417e31de986p+15", 1)),
    1: (("0x1.2951ed6543b00p+14", 17), ("0x1.3fb0c32e8458ep+15", 17)),
    2: (("0x1.6e50856b8dd41p+14", 22), ("0x1.5bb1f141d1a5cp+15", 22)),
    3: (("0x1.26987cd03dc02p+14", 18), ("0x1.04ad666ac6003p+15", 18)),
    4: (("0x1.3419873ca7748p+14", 23), ("0x1.d3a3acde934c5p+14", 23)),
    5: (("0x1.1f91a5098e8ecp+14", 0), ("0x1.21fd6576ef0bcp+15", 6)),
}


@pytest.mark.parametrize("seed", sorted(FIRST_DEATH))
def test_cycles_to_first_death_golden(seed):
    from repro.mac.base import geometric_oracle
    from repro.metrics.lifetime import cycles_to_first_death
    from repro.topology import Cluster, uniform_square

    oracle, cluster = geometric_oracle(Cluster.from_deployment(uniform_square(30, seed=seed)))
    got = []
    for sectored in (False, True):
        cycles, sensor = cycles_to_first_death(cluster, oracle, sectored=sectored)
        got.append((cycles.hex(), sensor))
    assert tuple(got) == FIRST_DEATH[seed]


def test_cycles_to_first_death_sectored_wins():
    from repro.mac.base import geometric_oracle
    from repro.metrics.lifetime import cycles_to_first_death
    from repro.topology import Cluster, uniform_square

    dep = uniform_square(20, seed=1)
    oracle, cluster = geometric_oracle(Cluster.from_deployment(dep))
    plain_cycles, _ = cycles_to_first_death(cluster, oracle, sectored=False)
    sect_cycles, _ = cycles_to_first_death(cluster, oracle, sectored=True)
    assert sect_cycles > plain_cycles
    assert plain_cycles > 0

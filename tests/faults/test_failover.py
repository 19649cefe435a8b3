"""In-cycle failover onto k-disjoint backups: the ISSUE's chaos acceptance.

A relay crash with ``backup_k >= 1`` must be absorbed *within* the polling
cycle it is discovered in — pending requests re-issue along a precomputed
node-disjoint backup path next slot — so the median time-to-recover stays
at or under one polling cycle and strictly beats the boundary-repair-only
baseline (``backup_k=0``), with zero strict-mode invariant violations.
With ``backup_k=0`` none of the failover machinery may even exist.
"""

import random

import pytest

from repro import validate
from repro.faults import FaultPlan, NodeCrash
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.routing import compute_backup_routes

CYCLES = 8
SENSORS = 30


def _backed_up_relays(mac) -> list[int]:
    """Relays every downstream sensor of which has a disjoint backup.

    Strict node-disjointness means not every relay is survivable (a sensor
    whose alternatives all share one cut node keeps falling back to
    boundary repair); the chaos crash targets the relays the feature
    promises to absorb.
    """
    routes = compute_backup_routes(mac.routing, k=1)
    fp = mac.routing.flow_paths
    relays = sorted({n for bundles in fp.values() for p, _ in bundles for n in p[1:-1]})
    good = []
    for r in relays:
        downstream = [
            s for s, b in fp.items() if s != r and any(r in p[1:-1] for p, _ in b)
        ]
        if downstream and all(
            any(r not in bp for bp in routes.paths_for(s)) for s in downstream
        ):
            good.append(r)
    return good


def _chaos_runs(seed: int):
    """One random relay crash, run at k=0 and k=1 under strict validation."""
    probe = run_polling_simulation(
        PollingSimConfig(n_sensors=SENSORS, n_cycles=2, seed=seed)
    )
    rng = random.Random(seed)
    victim = rng.choice(_backed_up_relays(probe.mac))
    at = rng.uniform(12.0, 42.0)  # anywhere from cycle 1 to cycle 4
    plan = FaultPlan(crashes=[NodeCrash(node=victim, at=at)])
    results = {}
    for k in (0, 1):
        cfg = PollingSimConfig(
            n_sensors=SENSORS, n_cycles=CYCLES, seed=seed, fault_plan=plan, backup_k=k
        )
        with validate.strict():
            results[k] = run_polling_simulation(cfg)
        assert results[k].violations == []
    return victim, results


@pytest.mark.parametrize("seed", [3, 5, 7, 11, 13])
def test_chaos_failover_recovers_within_one_cycle(seed):
    victim, results = _chaos_runs(seed)
    reactive = results[0].availability
    proactive = results[1].availability
    # The ISSUE's bar: median TTR <= 1 polling cycle, strictly better than
    # waiting for the duty-cycle-boundary repair.
    assert proactive.median_ttr_cycles <= 1.0
    assert proactive.median_ttr_cycles < reactive.median_ttr_cycles
    assert proactive.in_cycle_failovers > 0
    assert reactive.in_cycle_failovers == 0
    # Failing over must not cost delivery relative to the baseline.
    assert results[1].packets_delivered >= results[0].packets_delivered
    assert results[1].mac.packets_failed <= results[0].mac.packets_failed


@pytest.mark.parametrize("seed", [3, 7])
def test_failover_does_not_hide_the_death(seed):
    # Successful failovers must still feed the abandoned paths to evidence
    # mining: the dead relay ends up blacklisted and routed around, not
    # silently tolerated forever.
    victim, results = _chaos_runs(seed)
    mac = results[1].mac
    assert victim in mac.blacklisted
    assert mac.route_repairs >= 1
    post_repair_plan = mac.routing.routing_plan()
    for sensor, path in post_repair_plan.paths.items():
        assert victim not in path


def test_k0_has_no_failover_machinery():
    plan = FaultPlan(crashes=[NodeCrash(node=7, at=20.3)])
    cfg = PollingSimConfig(
        n_sensors=SENSORS, n_cycles=CYCLES, seed=3, fault_plan=plan, backup_k=0
    )
    res = run_polling_simulation(cfg)
    assert res.mac.backups is None
    assert res.mac.in_cycle_failovers == 0
    assert res.mac.failovers == []
    assert res.availability.in_cycle_failovers == 0
    # and the run stays exactly repeatable
    again = run_polling_simulation(cfg)
    assert again.packets_delivered == res.packets_delivered
    assert again.mac.packets_failed == res.mac.packets_failed
    assert again.elapsed == res.elapsed


def test_failover_events_are_recorded_with_paths():
    plan = FaultPlan(crashes=[NodeCrash(node=7, at=20.3)])
    cfg = PollingSimConfig(
        n_sensors=SENSORS, n_cycles=CYCLES, seed=3, fault_plan=plan, backup_k=1
    )
    res = run_polling_simulation(cfg)
    assert res.mac.in_cycle_failovers > 0
    for ev in res.mac.failovers:
        assert ev.reason in ("retry-exhausted", "miss-streak")
        assert ev.old_path != ev.new_path
        assert ev.old_path[0] == ev.new_path[0] == ev.sensor
        # the switch avoided the interior it abandoned
        assert 7 not in ev.new_path[1:-1]


def test_backup_k_rejected_when_negative():
    with pytest.raises(ValueError):
        run_polling_simulation(PollingSimConfig(n_sensors=6, n_cycles=1, backup_k=-1))

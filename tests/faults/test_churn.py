"""Dynamic-network chaos and the empty-plan bit-for-bit contract.

Three promises from DESIGN.md §11 under test:

* **Chaos** — random churn (joins + leaves) mixed with unannounced crashes,
  mobility, and online re-clustering finishes strict-validation-clean over
  many seeds, with blacklists and exclusions correctly carried across every
  re-form (no demand ever routed to a departed or blacklisted node).
* **Bit-for-bit** — with no dynamic plan and re-clustering off, every
  existing path (static run, crash-plan run, fig2/fig4) produces outputs
  *identical* to the pre-churn code, down to per-radio energy floats.  The
  golden digests below were captured by running the same fingerprint on the
  seed commit and on this tree and checking they matched.
* **Payoff** — under pure churn, staleness-triggered re-clustering strictly
  beats never-re-clustering on delivered coverage (the ablation's headline).
"""

import hashlib
import json
import random

import pytest

from repro import validate
from repro.experiments import churn_ablation
from repro.faults import FaultPlan, Mobility, NodeCrash, NodeJoin, NodeLeave
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.topology import StalenessTrigger

SENSORS = 24
CYCLES = 8
CYCLE = 10.0


def _chaos_plan(seed: int) -> FaultPlan:
    """Random joins + leaves + one crash + slow drift, from a local RNG."""
    rng = random.Random(seed)
    nodes = rng.sample(range(SENSORS), 3)
    t = lambda: rng.uniform(CYCLE, (CYCLES - 2) * CYCLE)  # noqa: E731
    return FaultPlan(
        joins=[
            NodeJoin(at=t(), position=(rng.uniform(0, 200), rng.uniform(0, 200)))
            for _ in range(2)
        ],
        leaves=[NodeLeave(node=nodes[0], at=t()), NodeLeave(node=nodes[1], at=t())],
        crashes=[NodeCrash(node=nodes[2], at=t())],
        mobility=Mobility(speed_mps=0.3),
    )


PERIOD_3 = StalenessTrigger(membership_delta=0, repair_fallbacks=0, period_cycles=3)


@pytest.mark.parametrize("seed", [1, 2, 5, 9, 17])
@pytest.mark.parametrize("policy", ["staleness", "periodic"])
def test_chaos_churn_strict_clean(seed, policy):
    cfg = PollingSimConfig(
        n_sensors=SENSORS,
        n_cycles=CYCLES,
        seed=seed,
        fault_plan=_chaos_plan(seed),
        recluster=StalenessTrigger() if policy == "staleness" else PERIOD_3,
        backup_k=1,
    )
    with validate.strict():
        res = run_polling_simulation(cfg)
    assert res.violations == []
    mac = res.mac
    # Exclusions carried across every re-form: nothing routed to the gone.
    gone = mac.blacklisted | mac.departed | mac.absent
    plan = mac.routing.routing_plan()
    for s, path in plan.paths.items():
        assert s not in gone
        assert not (set(path) & gone)
    # The head learned every announced departure without detection cycles.
    assert res.injector.departed <= mac.departed
    # Re-forms actually happened and were recorded with their reasons.
    assert mac.reclusters >= 1
    for record in mac.replans:
        if record.cause == "recluster":
            assert record.reason in ("membership", "repairs", "overload", "periodic")


@pytest.mark.parametrize("seed", [1, 9])
def test_chaos_churn_is_deterministic(seed):
    cfg = PollingSimConfig(
        n_sensors=SENSORS,
        n_cycles=CYCLES,
        seed=seed,
        fault_plan=_chaos_plan(seed),
        recluster=StalenessTrigger(),
    )
    a = run_polling_simulation(cfg)
    b = run_polling_simulation(cfg)
    assert a.packets_delivered == b.packets_delivered
    assert a.mac.replans == b.mac.replans
    assert a.staleness == b.staleness


def test_joiners_admitted_and_served():
    plan = FaultPlan(joins=[NodeJoin(at=1.5 * CYCLE, position=(90.0, 90.0))])
    cfg = PollingSimConfig(
        n_sensors=12,
        n_cycles=6,
        seed=3,
        fault_plan=plan,
        recluster=StalenessTrigger(),
    )
    with validate.strict():
        res = run_polling_simulation(cfg)
    joiner = 12  # joins allocate ids after the deployed sensors, plan order
    stale = res.staleness
    assert stale.joins_planned == 1
    assert stale.joins_powered == 1
    assert stale.joins_admitted == 1
    assert joiner not in res.mac.absent
    assert joiner in res.mac.routing.routing_plan().paths
    # The joiner's data actually arrived at the head after admission.
    origins = {p.origin for p in res.mac.delivered_packets()}
    assert joiner in origins


def test_recluster_off_never_admits_but_still_repairs_leaves():
    plan = FaultPlan(
        joins=[NodeJoin(at=1.5 * CYCLE, position=(90.0, 90.0))],
        leaves=[NodeLeave(node=2, at=2.5 * CYCLE)],
    )
    cfg = PollingSimConfig(
        n_sensors=12, n_cycles=6, seed=3, fault_plan=plan, recluster=None
    )
    with validate.strict():
        res = run_polling_simulation(cfg)
    mac = res.mac
    assert mac.reclusters == 0
    assert 12 in mac.absent  # joiner powered up but was never admitted
    assert 2 in mac.departed
    plan_paths = mac.routing.routing_plan().paths
    assert 2 not in plan_paths  # announced leave repaired around, no detection
    assert 12 not in plan_paths
    assert mac.route_repairs >= 1
    # No detection cycles were burned inferring the announced departure.
    assert 2 not in mac.blacklisted


def test_recluster_takes_a_trigger_not_a_policy_name():
    cfg = PollingSimConfig(n_sensors=6, n_cycles=1, recluster="staleness")
    with pytest.raises(TypeError, match="StalenessTrigger"):
        run_polling_simulation(cfg)


# -- bit-for-bit regression ----------------------------------------------------

# sha256 over the full-precision (float.hex) run fingerprint, captured
# identically on the pre-churn seed commit and on this tree.
GOLDEN = {
    "fig2": "9b65389652515be0e9f94196145dc0d320639365c81b4eea8c21231d6fed2ec0",
    "fig4": "db4ef4a7da42457c784de2a03d075345eb4856129c7e4eb14fb4145f7638e0c2",
    "static-seed0": "b04afab7ed04f4e49ff5e488fc99aa7f7bd3238916b191bcf9d7220592c6c80c",
    "static-seed3": "c0effcff8b8c560637d5810c7a2358c26fdc2425fb255b32a9b11dcd1600f3b8",
    "crash-seed3": "f4639e986445054536eda7f7e827ee57cd1e5d1d6387a80e50a08d10af751842",
    # The chaos run of _chaos_plan(1) under each re-form trigger; "period5"
    # spells out the cadence a periodic policy once got with no trigger.
    "chaos-staleness": "a46cd404bc2b5e076f2e62ce233bd8d69f7853d7564d14a234479908fd73afba",
    "chaos-period3": "a5ac90b0cfd0f3f68e2dde45eac744794afd71060821229d6d47c6c3aec88922",
    "chaos-period5": "e3af7032ed1f6f904069730caeaae8786cfb3cbad05ac7a3bf42ce8afe8b436b",
}


def _run_fingerprint(cfg) -> str:
    res = run_polling_simulation(cfg)
    n = res.phy.n_sensors
    payload = {
        "delivered": res.packets_delivered,
        "failed": res.mac.packets_failed,
        "generated": res.packets_generated,
        "elapsed": res.elapsed.hex(),
        "active": [float(x).hex() for x in res.active_fraction],
        "duty": [cs.duty_time.hex() for cs in res.mac.cycle_stats],
        "energies": [res.phy.trx(i).meter.consumed_j.hex() for i in range(n)],
        "head_energy": res.phy.trx(n).meter.consumed_j.hex(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 3])
def test_static_run_bit_for_bit_golden(seed):
    assert (
        _run_fingerprint(PollingSimConfig(n_sensors=30, n_cycles=8, seed=seed))
        == GOLDEN[f"static-seed{seed}"]
    )


def test_empty_dynamic_plan_bit_for_bit_golden():
    # FaultPlan() and explicit recluster=None must ride the same path.
    cfg = PollingSimConfig(
        n_sensors=30, n_cycles=8, seed=3, fault_plan=FaultPlan(), recluster=None
    )
    assert _run_fingerprint(cfg) == GOLDEN["static-seed3"]


def test_crash_plan_bit_for_bit_golden():
    # The fault-ablation path: a crash plan with zero dynamic events must
    # be untouched by the churn machinery (same detector, same repairs).
    plan = FaultPlan(crashes=[NodeCrash(node=1, at=20.3)])
    cfg = PollingSimConfig(n_sensors=30, n_cycles=8, seed=3, fault_plan=plan)
    assert _run_fingerprint(cfg) == GOLDEN["crash-seed3"]


CHAOS_TRIGGERS = {
    "chaos-staleness": StalenessTrigger(),
    "chaos-period3": PERIOD_3,
    "chaos-period5": StalenessTrigger(
        membership_delta=0, repair_fallbacks=0, period_cycles=5
    ),
}


@pytest.mark.parametrize("name", sorted(CHAOS_TRIGGERS))
def test_chaos_recluster_bit_for_bit_golden(name):
    cfg = PollingSimConfig(
        n_sensors=SENSORS,
        n_cycles=10,
        seed=1,
        fault_plan=_chaos_plan(1),
        backup_k=1,
        recluster=CHAOS_TRIGGERS[name],
    )
    assert _run_fingerprint(cfg) == GOLDEN[name]


def test_fig2_fig4_bit_for_bit_golden():
    from repro.experiments import fig2, fig4

    f2 = hashlib.sha256(
        json.dumps(fig2.run(), sort_keys=True, default=str).encode()
    ).hexdigest()
    f4 = hashlib.sha256(
        json.dumps(fig4.run(), sort_keys=True, default=str).encode()
    ).hexdigest()
    assert f2 == GOLDEN["fig2"]
    assert f4 == GOLDEN["fig4"]


# -- the ablation's payoff criterion -------------------------------------------


def test_staleness_strictly_beats_off_under_churn():
    rows = churn_ablation.run(
        n_sensors=24,
        n_cycles=10,
        seed=7,
        churn_rates=(0.6,),
        mobility_speeds=(0.0,),
        policies=("off", "staleness"),
    )
    by = {r["policy"]: r for r in rows}
    assert by["staleness"]["coverage"] > by["off"]["coverage"]
    assert by["staleness"]["delivered"] > by["off"]["delivered"]
    assert by["staleness"]["reclusters"] >= 1
    assert by["off"]["reclusters"] == 0
    assert by["off"]["violations"] == 0 and by["staleness"]["violations"] == 0

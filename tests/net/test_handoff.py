"""Field-level re-forming: cross-cluster handoff under mobility (DESIGN.md §13).

Three contracts under test:

* **off ≡ HEAD** — ``handoff="off"`` is bit-for-bit the pre-handoff code
  path: the golden fingerprints below (which include every radio's energy
  ledger as float hex) were captured before the coordinator existed and
  must never change while the feature is off;
* **crash safety** — a head dying inside the prepare->commit window aborts
  its moves cleanly (no stranded queues, no dual membership), and the
  failover adoption path composes with handoff under strict invariants;
* **payoff** — under the PR 6 mobility regimes the staleness-triggered
  re-forming strictly improves delivery, final staleness and ground-truth
  field coverage over the frozen deploy-time forming.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import validate
from repro.net import MultiClusterConfig, run_multicluster_simulation

# The prepare event fires handoff_commit_lead before each boundary; a crash
# scheduled inside (boundary - lead, boundary) lands in the protocol's
# crash window.
LEAD = 0.25


def fingerprint(res) -> str:
    """Full behavioral digest, per-radio energy floats included."""
    seen, energies = set(), []
    for mac in res.macs:
        for trx in mac.phy.transceivers:
            if id(trx) not in seen:
                seen.add(id(trx))
                energies.append((trx.node, trx.meter.consumed_j.hex()))
    payload = {
        "delivered": res.packets_delivered,
        "failed": res.packets_failed,
        "generated": res.packets_generated,
        "collisions": res.collisions,
        "elapsed": res.elapsed.hex(),
        "staleness": res.final_assignment_staleness.hex(),
        "per_cluster": res.per_cluster_delivery(),
        "energies": sorted(energies),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# Captured at the commit immediately preceding this feature (handoff knob
# absent from the config entirely).  handoff="off" must reproduce them.
GOLDEN = {
    "static-ch-seed2": (
        MultiClusterConfig(n_cycles=6, seed=2),
        "7c2795a3c02995906b5b2805709f46588fa566d06207f4090ced0bd2a6f42457",
    ),
    "static-token-seed0": (
        MultiClusterConfig(n_cycles=4, seed=0, mode="token"),
        "793aad1ff51aa5fd8bb714dc7b5898162a0e05ace2e67c4423ab2715aa677236",
    ),
    "mobility-2.0-seed2": (
        MultiClusterConfig(n_cycles=6, seed=2, mobility_speed_mps=2.0),
        "5b2cd60dfff72f600fa7bc16c532c85f8e3ec8a34b7df8f69cb16628f5d40868",
    ),
    "mobility-4.0-seed5": (
        MultiClusterConfig(n_cycles=8, seed=5, mobility_speed_mps=4.0),
        "1ae9765842db4c60b8f8a70aa829b325efaf700c604d9969e2f12322794110dd",
    ),
    "mobility-crash-failover-seed2": (
        MultiClusterConfig(
            n_cycles=8, seed=2, mobility_speed_mps=2.0,
            head_failover=True, head_crashes=((1, 8.0),),
        ),
        "bce00476e6889d1b98e26e938d39096643d21c8b09bd99f7a571f566c489e70e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_handoff_off_is_bit_for_bit_head(name):
    cfg, want = GOLDEN[name]
    assert cfg.handoff == "off"
    assert fingerprint(run_multicluster_simulation(cfg)) == want


def test_off_creates_no_field_coordinator():
    res = run_multicluster_simulation(MultiClusterConfig(n_cycles=2))
    assert res.field_coordinator is None
    assert res.handoff_events == []
    assert res.field_reforms == 0
    assert res.staleness_trajectory == ()


def test_unknown_handoff_policy_rejected():
    with pytest.raises(ValueError, match="handoff"):
        run_multicluster_simulation(MultiClusterConfig(handoff="sometimes"))


def test_handoff_run_is_deterministic():
    cfg = MultiClusterConfig(
        n_cycles=8, seed=2, mobility_speed_mps=3.0,
        handoff="staleness", handoff_head_step_m=6.0,
    )
    a = run_multicluster_simulation(cfg)
    b = run_multicluster_simulation(cfg)
    assert fingerprint(a) == fingerprint(b)
    assert a.handoff_events == b.handoff_events
    assert a.staleness_trajectory == b.staleness_trajectory


def test_mobility_run_samples_staleness_every_epoch():
    cfg = MultiClusterConfig(n_cycles=6, seed=2, mobility_speed_mps=2.0)
    res = run_multicluster_simulation(cfg)
    # one sample per mobility epoch (cycle boundaries 1..n-1)
    assert len(res.staleness_trajectory) == res.mobility_epochs == 5
    assert all(0.0 <= s <= 1.0 for s in res.staleness_trajectory)
    # the final end-of-run figure matches the deploy-assignment measure the
    # trajectory is sampled from (positions do not move after the last epoch)
    assert res.staleness_trajectory[-1] == pytest.approx(
        res.final_assignment_staleness
    )


def test_staleness_payoff_under_mobility():
    """The acceptance regime: re-forming strictly beats the frozen forming."""
    base = dict(n_cycles=10, seed=0, mobility_speed_mps=4.0)
    off = run_multicluster_simulation(MultiClusterConfig(**base))
    with validate.strict():
        on = run_multicluster_simulation(
            MultiClusterConfig(**base, handoff="staleness")
        )
    assert on.field_reforms >= 1
    assert on.field_handoffs >= 1
    assert on.packets_delivered > off.packets_delivered
    assert on.final_assignment_staleness < off.final_assignment_staleness
    assert on.field_coverage > off.field_coverage


def test_committed_sensors_change_cluster_and_queues_survive():
    cfg = MultiClusterConfig(
        n_cycles=8, seed=2, mobility_speed_mps=3.0, handoff="staleness"
    )
    with validate.strict():
        res = run_multicluster_simulation(cfg)
    committed = [e for e in res.handoff_events if e.state == "committed"]
    assert committed, "regime chosen to produce at least one handoff"
    coord = res.field_coordinator
    for e in committed:
        assert int(coord.serving[e.sensor]) != e.src or any(
            later.sensor == e.sensor and later.time > e.time
            for later in res.handoff_events
        )
    # every sensor appears in exactly one live roster (no dual membership)
    owners: dict[int, int] = {}
    for mac in res.macs:
        if mac.halted:
            continue
        for g in mac.phy.index_map[:-1]:
            assert g not in owners, f"sensor {g} in clusters {owners[g]} and {mac.cluster_id}"
            owners[int(g)] = mac.cluster_id


def test_rebuild_keeps_agents_only_while_local_ids_hold(monkeypatch):
    """A re-form that renumbers no member keeps every member's agent; one
    that renumbers any member gives every member a fresh agent, so no state
    keyed by an old local id (``known_dead``, the buffers) survives it."""
    from repro.mac.pollmac import PollingClusterMac
    from repro.topology import StalenessTrigger

    seen = {"kept": 0, "fresh": 0}
    reform = PollingClusterMac.reform_membership

    def spy(mac, new_phy, agents, **evidence):
        old = {
            int(g): (l, mac.sensors[l])
            for l, g in enumerate(mac.phy.index_map[:-1])
        }
        stayed = [
            (l, int(g))
            for l, g in enumerate(new_phy.index_map[:-1])
            if int(g) in old
        ]
        ids_hold = all(old[g][0] == l for l, g in stayed)
        reused = [agents[l] is old[g][1] for l, g in stayed]
        assert all(reused) if ids_hold else not any(reused)
        seen["kept" if ids_hold else "fresh"] += 1
        return reform(mac, new_phy, agents, **evidence)

    monkeypatch.setattr(PollingClusterMac, "reform_membership", spy)
    cfg = MultiClusterConfig(
        n_cycles=8, seed=2, mobility_speed_mps=3.0,
        handoff="staleness", failure_detection=True,
        handoff_trigger=StalenessTrigger(membership_delta=1, repair_fallbacks=0),
    )
    with validate.strict():
        run_multicluster_simulation(cfg)
    assert seen["kept"] and seen["fresh"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_chaos_mobility_crash_mid_handoff_strict_clean(seed):
    """Head crashes inside the prepare->commit window, strict invariants on.

    The crash lands at boundary - 0.1 (prepare fired at boundary - 0.25),
    so staged moves whose endpoints died must abort; the failover watchdog
    then adopts the orphans.  Strict mode raises on any conservation or
    membership violation — passing means the composed machinery is clean.
    """
    boundary = 2 * 6.0  # cycle 2 boundary of the default 6 s cycles
    cfg = MultiClusterConfig(
        n_cycles=8,
        seed=seed,
        mobility_speed_mps=3.0,
        handoff="staleness",
        handoff_head_step_m=4.0,
        head_failover=True,
        head_crashes=((seed % 3, boundary - 0.1),),
    )
    with validate.strict():
        res = run_multicluster_simulation(cfg)
    assert res.field_coordinator is not None
    # the crashed head stays halted; everyone else finishes the run
    assert res.macs[seed % 3].halted
    states = {e.state for e in res.handoff_events}
    assert states <= {
        "committed",
        "aborted-src-dead",
        "aborted-dst-dead",
        "deferred-busy",
        "deferred-src-empty",
        "deferred-unreachable",
        "deferred-bridge",
    }
    # no stranded queues: pending packets live in exactly the agents the
    # live (or dark, pre-adoption) rosters point at, and every CBR source
    # targets an agent that exists
    for mac in res.macs:
        for agent in mac.sensors:
            assert agent.pending_count >= 0


def test_crash_of_destination_head_in_window_aborts_moves():
    """Force a dst-dead abort: kill a head right after prepare retunes."""
    # Find a seed/boundary where the staleness trigger stages moves into a
    # head we then crash inside the window.
    base = dict(
        n_cycles=8, seed=2, mobility_speed_mps=4.0, handoff="staleness"
    )
    probe = run_multicluster_simulation(MultiClusterConfig(**base))
    committed = [e for e in probe.handoff_events if e.state == "committed"]
    assert committed
    first = min(committed, key=lambda e: e.time)
    with validate.strict():
        res = run_multicluster_simulation(
            MultiClusterConfig(
                **base,
                head_failover=True,
                head_crashes=((first.dst, first.time - 0.1),),
            )
        )
    aborted = [e for e in res.handoff_events if e.state.startswith("aborted")]
    assert aborted, "crashing the destination inside the window must abort"
    # aborted movers stayed with a cluster (their source, or an adopter if
    # the source died later) — never orphaned by the handoff machinery
    for e in aborted:
        owners = [
            mac.cluster_id
            for mac in res.macs
            if not mac.halted and e.sensor in set(mac.phy.index_map[:-1])
        ]
        assert len(owners) <= 1


def test_head_replacement_moves_heads_within_budget():
    cfg = MultiClusterConfig(
        n_cycles=8, seed=2, mobility_speed_mps=3.0,
        handoff="staleness", handoff_head_step_m=5.0,
    )
    res = run_multicluster_simulation(cfg)
    assert res.field_reforms >= 1
    # heads physically moved: the shared medium's head rows differ from the
    # deploy layout by at most reforms * budget
    deploy = run_multicluster_simulation(
        dataclasses.replace(cfg, handoff="off", n_cycles=1)
    )
    # deploy head layout is seed-determined, identical across both runs
    import numpy as np

    n = cfg.n_sensors
    moved = 0.0
    for h in range(cfg.n_heads):
        a = res.field_coordinator.head_positions[h]
        b = deploy.net.clusters[h].head_position
        moved = max(moved, float(np.hypot(*(a - b))))
    assert moved > 0.0
    assert moved <= res.field_reforms * cfg.handoff_head_step_m + 1e-9


def test_periodic_policy_reforms_every_cycle():
    cfg = MultiClusterConfig(
        n_cycles=6, seed=2, mobility_speed_mps=2.0, handoff="periodic"
    )
    res = run_multicluster_simulation(cfg)
    # a periodic trigger with period 1 commits a plan at every boundary
    assert res.field_reforms == 5


def test_solver_cache_and_liveness_passthroughs():
    """The PR 4/PR 7 knobs thread through and stay strict-clean."""
    from repro.topology import StalenessTrigger

    cfg = MultiClusterConfig(
        n_cycles=8, seed=2, mobility_speed_mps=3.0,
        handoff="staleness", use_solver_cache=True,
        failure_detection=True, backup_k=1,
        # failure detection blacklists (and therefore freezes) some of the
        # drifters the default threshold counts on; fire on the first one
        handoff_trigger=StalenessTrigger(membership_delta=1, repair_fallbacks=0),
    )
    with validate.strict():
        res = run_multicluster_simulation(cfg)
    assert res.field_reforms >= 1
    assert all(mac.solver_cache is not None for mac in res.macs)
    assert len({id(mac.solver_cache) for mac in res.macs}) == 1  # shared
    stats = res.macs[0].solver_cache.stats
    assert stats.routing_misses + stats.routing_hits > 0


def test_field_coverage_bounds_and_static_value():
    static = run_multicluster_simulation(MultiClusterConfig(n_cycles=2, seed=2))
    assert 0.0 <= static.field_coverage <= 1.0
    mobile = run_multicluster_simulation(
        MultiClusterConfig(n_cycles=8, seed=2, mobility_speed_mps=4.0)
    )
    # drift strands sensors the frozen rosters cannot reach
    assert mobile.field_coverage < static.field_coverage

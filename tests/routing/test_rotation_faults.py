"""Rotation and backup routing under faults (survivability satellites).

Path rotation runs on whatever solution is current; after a route repair
that must be the repaired solution — so no rotated per-cycle plan may ever
route through a node the head has blacklisted, no matter which alternative
the round-robin picks.  Likewise the backup routes recomputed after a
repair must avoid the dead nodes entirely.  And when repairs cascade, each
cut-off sensor's demand is dropped exactly once.
"""

import numpy as np
import pytest

from repro.mac import Replan
from repro.metrics import reconcile_dropped_demand
from repro.routing import (
    PathRotator,
    compute_backup_routes,
    repair_routing,
    solve_min_max_load,
)
from repro.topology import Cluster, uniform_square


def _random_cluster(seed: int, n: int = 20) -> Cluster:
    dep = uniform_square(n, seed=seed, side=150.0, comm_range=60.0)
    return Cluster.from_deployment(dep)


def _pick_relay(solution) -> int | None:
    """A node that actually carries someone else's traffic."""
    for sensor, bundles in sorted(solution.flow_paths.items()):
        for path, _ in bundles:
            if len(path) > 2:
                return int(path[1])
    return None


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_rotated_plans_never_route_through_blacklisted(seed):
    cluster = _random_cluster(seed)
    baseline = solve_min_max_load(cluster.with_packets(np.maximum(cluster.packets, 1)))
    dead = _pick_relay(baseline)
    if dead is None:
        pytest.skip("all-direct topology: nothing to blacklist")
    result = repair_routing(
        cluster.with_packets(np.maximum(cluster.packets, 1)), {dead}
    )
    rotator = PathRotator(result.solution)
    # Cover every rotation offset: total units bounds the rotation period.
    cycles = sum(
        units
        for bundles in result.solution.flow_paths.values()
        for _, units in bundles
    )
    for _ in range(max(cycles, 1) * 2):
        plan = rotator.next_cycle()
        for sensor, path in plan.paths.items():
            assert dead not in path, (
                f"cycle {rotator.cycle_count}: sensor {sensor} rotated onto "
                f"{path} through blacklisted node {dead}"
            )


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_repaired_backups_avoid_dead_nodes(seed):
    cluster = _random_cluster(seed)
    base = cluster.with_packets(np.maximum(cluster.packets, 1))
    baseline = solve_min_max_load(base)
    dead = _pick_relay(baseline)
    if dead is None:
        pytest.skip("all-direct topology: nothing to kill")
    result = repair_routing(base, {dead})
    routes = compute_backup_routes(result.solution, k=2)
    for sensor, backups in routes.backups.items():
        for path in backups:
            assert dead not in path, (
                f"backup {path} for sensor {sensor} runs through dead node {dead}"
            )


def test_rotation_covers_exactly_the_served_sensors(chain_cluster):
    # Kill the chain's mid relay: downstream sensors become uncovered and
    # must vanish from every rotated plan instead of keeping a stale path.
    result = repair_routing(chain_cluster, {1})
    rotator = PathRotator(result.solution)
    plan = rotator.next_cycle()
    assert set(plan.paths) == set(result.solution.flow_paths)
    for uncovered in result.uncovered:
        assert uncovered not in plan.paths


def _repair_record(time: float, result) -> Replan:
    """The re-plan record a head writes for one repair *result*."""
    return Replan(
        time=time,
        cause="repair",
        routing=result.solution,
        unreachable=tuple(result.uncovered),
        dropped_pending=dict(result.dropped_demand),
    )


def test_cascading_repairs_drop_each_sensor_once(chain_cluster):
    # chain: 2 -> 1 -> 0 -> head.  Killing 1 strands 2; killing 0 next
    # strands nobody new (2 is already stranded, 1 already dead) — but 2
    # reappears in the second repair's dropped_demand.  The merge must
    # attribute its demand to the first repair only.
    first = repair_routing(chain_cluster, {1})
    second = repair_routing(chain_cluster, {0, 1})
    assert 2 in first.dropped_demand and 2 in second.dropped_demand
    merged = reconcile_dropped_demand(
        [_repair_record(10.0, first), _repair_record(20.0, second)]
    )
    assert merged[2] == first.dropped_demand[2]
    assert sum(merged.values()) < first.dropped_packets + second.dropped_packets


def test_reconcile_dropped_demand_counts_first_repair_only(chain_cluster):
    # Two consecutive re-plan records both listing sensor 2: counted once,
    # first value.
    routing = solve_min_max_load(chain_cluster)
    records = [
        Replan(time=10.0, cause="repair", routing=routing, dropped_pending={2: 3}),
        Replan(
            time=20.0, cause="repair", routing=routing, dropped_pending={2: 5, 7: 1}
        ),
    ]
    merged = reconcile_dropped_demand(records)
    assert merged == {2: 3, 7: 1}


def test_reconcile_dropped_demand_empty_log(chain_cluster):
    assert reconcile_dropped_demand([]) == {}
    routing = solve_min_max_load(chain_cluster)
    initial = Replan(time=1.0, cause="initial", routing=routing)
    assert reconcile_dropped_demand([initial]) == {}

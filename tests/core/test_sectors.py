"""Tests for sector partitioning: heuristic, exact, pseudo rates."""

import numpy as np
import pytest

from repro.core import (
    PairingRules,
    Sector,
    SectorPartition,
    partition_into_sectors,
    partition_tree_into_sectors,
)
from repro.mac.base import geometric_oracle
from repro.routing import RelayTree, merge_flow_to_tree, solve_min_max_load
from repro.topology import HEAD, Cluster, uniform_square

from ..conftest import AllCompatibleOracle
from .sectors_exact import best_branch_partition, iter_set_partitions


def two_branch_cluster() -> Cluster:
    """Two first-level sensors 0,1; chains behind each; cross links 2-3."""
    return Cluster.from_edges(
        6,
        sensor_edges=[(0, 2), (2, 4), (1, 3), (3, 5), (2, 3)],
        head_links=[0, 1],
        packets=[1, 1, 1, 1, 1, 1],
    )


def test_sector_structure_and_paths():
    sec = Sector(sensors=[0, 2, 4], roots=[0], parent={0: HEAD, 2: 0, 4: 2})
    assert sec.size == 3
    assert sec.path_from(4) == (4, 2, 0, HEAD)
    c = two_branch_cluster()
    plan = sec.routing_plan(c)
    assert set(plan.paths) == {0, 2, 4}
    loads = sec.loads(c)
    assert loads[0] == 3 and loads[2] == 2 and loads[4] == 1


def test_partition_rejects_overlap():
    with pytest.raises(ValueError, match="two sectors"):
        SectorPartition(
            cluster=two_branch_cluster(),
            sectors=[
                Sector(sensors=[0, 2], roots=[0], parent={0: HEAD, 2: 0}),
                Sector(sensors=[2], roots=[2], parent={}),
            ],
        )


def test_pseudo_rates_formula():
    c = two_branch_cluster()
    sec = Sector(sensors=[0, 2, 4], roots=[0], parent={0: HEAD, 2: 0, 4: 2})
    part = SectorPartition(cluster=c, sectors=[sec])
    rates = part.pseudo_rates(c1=2.0, c2=0.5)
    assert rates[0] == 2.0 * 3 + 0.5 * 3
    assert rates[4] == 2.0 * 1 + 0.5 * 3
    assert part.max_pseudo_rate(2.0, 0.5) == rates[0]


def test_heuristic_covers_all_packet_owners():
    for seed in range(5):
        dep = uniform_square(18, seed=seed)
        c = Cluster.from_deployment(dep)
        oracle, c = geometric_oracle(c)
        sol = solve_min_max_load(c)
        part = partition_into_sectors(sol, oracle=oracle)
        covered = {s for sec in part.sectors for s in sec.sensors}
        owners = {s for s in range(18) if c.packets[s] > 0}
        assert owners <= covered
        # every sector's paths stay inside the sector
        for sec in part.sectors:
            for s in sec.sensors:
                assert all(
                    x in sec.sensors for x in sec.path_from(s)[:-1]
                )


def test_pairing_produces_at_most_two_roots():
    dep = uniform_square(20, seed=2)
    c = Cluster.from_deployment(dep)
    oracle, c = geometric_oracle(c)
    part = partition_into_sectors(solve_min_max_load(c), oracle=oracle)
    for sec in part.sectors:
        assert 1 <= len(sec.roots) <= 2


def test_sectoring_reduces_max_pseudo_rate_vs_whole():
    """The point of Sec. IV: sectors beat the single whole-cluster sector."""
    wins = 0
    for seed in range(5):
        dep = uniform_square(24, seed=seed)
        c = Cluster.from_deployment(dep)
        oracle, c = geometric_oracle(c)
        sol = solve_min_max_load(c)
        tree = merge_flow_to_tree(sol)
        part = partition_into_sectors(sol, oracle=oracle)
        # whole cluster as one "sector"
        whole = SectorPartition(
            cluster=c,
            sectors=[
                Sector(
                    sensors=tree.members,
                    roots=tree.first_level_roots(),
                    parent=dict(tree.parent),
                )
            ],
        )
        if part.max_pseudo_rate() < whole.max_pseudo_rate():
            wins += 1
    assert wins >= 4  # sectoring should essentially always help


def test_rebalancing_moves_weight_to_light_root():
    # branch of 0 is heavy (3 dependents), branch of 1 light; 2-3 linked.
    c = Cluster.from_edges(
        7,
        sensor_edges=[(0, 2), (2, 4), (2, 5), (4, 6), (1, 3), (2, 3), (3, 4)],
        head_links=[0, 1],
        packets=[1, 1, 1, 1, 1, 1, 1],
    )
    tree = RelayTree(
        cluster=c,
        parent={0: HEAD, 1: HEAD, 2: 0, 3: 1, 4: 2, 5: 2, 6: 4},
    )
    part = partition_tree_into_sectors(tree, oracle=AllCompatibleOracle())
    # one sector containing both branches (they are linked via 2-3)
    assert part.n_sectors == 1
    sec = part.sectors[0]
    loads = sec.loads(c)
    # after rebalancing the two roots should be closer than 5 vs 2
    assert abs(loads[0] - loads[1]) <= 3


def test_rules_toggles_respected():
    c = two_branch_cluster()
    sol = solve_min_max_load(c)
    no_link = partition_into_sectors(
        sol, oracle=AllCompatibleOracle(), rules=PairingRules(require_link=False)
    )
    assert no_link.n_sectors >= 1
    strict = partition_into_sectors(sol, oracle=AllCompatibleOracle())
    assert strict.n_sectors >= 1


def test_sector_of_lookup():
    c = two_branch_cluster()
    part = partition_into_sectors(solve_min_max_load(c), oracle=AllCompatibleOracle())
    for i, sec in enumerate(part.sectors):
        for s in sec.sensors:
            assert part.sector_of(s) == i
    with pytest.raises(KeyError):
        part.sector_of(999)


# --- exact branch partitioning ---------------------------------------------------------

def test_iter_set_partitions_counts_bell_numbers():
    assert len(list(iter_set_partitions([1]))) == 1
    assert len(list(iter_set_partitions([1, 2]))) == 2
    assert len(list(iter_set_partitions([1, 2, 3]))) == 5
    assert len(list(iter_set_partitions([1, 2, 3, 4]))) == 15
    assert list(iter_set_partitions([])) == [[]]


def test_exact_never_worse_than_heuristic():
    for seed in range(4):
        dep = uniform_square(14, seed=seed)
        c = Cluster.from_deployment(dep)
        oracle, c = geometric_oracle(c)
        sol = solve_min_max_load(c)
        tree = merge_flow_to_tree(sol)
        if len(tree.first_level_roots()) > 8:
            continue
        heuristic = partition_tree_into_sectors(tree, oracle=oracle)
        exact = best_branch_partition(tree)
        assert exact.max_pseudo_rate() <= heuristic.max_pseudo_rate() + 1e-9


def test_exact_cap():
    dep = uniform_square(40, seed=0)
    c = Cluster.from_deployment(dep)
    tree = merge_flow_to_tree(solve_min_max_load(c))
    if len(tree.first_level_roots()) > 8:
        with pytest.raises(ValueError):
            best_branch_partition(tree)

"""Exhaustive sector partitioning over branch groupings (small clusters).

A test-side reference for the sector heuristic.  Optimal sector partition
is NP-complete (Thm. 5), but for clusters with a handful of first-level
branches we can enumerate *every* grouping of branches into sectors (set
partitions — Bell numbers, fine up to ~8 branches) and report the grouping
minimizing the maximum pseudo power consumption rate.  The tests check
that this optimum is never worse than the Sec. IV-B pairing heuristic.

Groups keep the relay tree's paths (with the same cross-branch rebalancing
the heuristic uses for two-root groups), so this is exact *at the branch
level*, matching the structure the paper's heuristic explores.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.sectors import Sector, SectorPartition, _rebalance_pair
from repro.routing.tree import RelayTree
from repro.topology.cluster import Cluster

__all__ = ["iter_set_partitions", "best_branch_partition"]


def iter_set_partitions(items: list) -> Iterator[list[list]]:
    """Yield all set partitions of *items* (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in iter_set_partitions(rest):
        # first joins an existing block...
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        # ...or starts its own.
        yield [[first]] + partial


def _sector_from_group(
    cluster: Cluster, tree: RelayTree, group: list[int]
) -> Sector:
    members: list[int] = []
    for root in group:
        members.extend(tree.subtree(root))
    parent = {s: tree.parent[s] for s in members}
    if len(group) == 2:
        parent = _rebalance_pair(cluster, parent, group[0], group[1], members)
    return Sector(sensors=sorted(members), roots=sorted(group), parent=parent)


def best_branch_partition(
    tree: RelayTree,
    c1: float = 1.0,
    c2: float = 1.0,
    max_branches: int = 8,
) -> SectorPartition:
    """The branch-grouping partition minimizing the max pseudo rate."""
    cluster = tree.cluster
    roots = tree.first_level_roots()
    if len(roots) > max_branches:
        raise ValueError(
            f"{len(roots)} branches exceed the exhaustive cap of {max_branches}"
        )
    best: SectorPartition | None = None
    best_rate = float("inf")
    for grouping in iter_set_partitions(roots):
        sectors = [_sector_from_group(cluster, tree, g) for g in grouping]
        partition = SectorPartition(cluster=cluster, sectors=sectors)
        rate = partition.max_pseudo_rate(c1, c2)
        if rate < best_rate:
            best_rate = rate
            best = partition
    assert best is not None
    return best

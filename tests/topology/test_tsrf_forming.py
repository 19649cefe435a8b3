"""Tests for the TSRF gadget structure and cluster forming."""

import numpy as np
import pytest

from repro.topology import (
    HEAD,
    bfs_discover,
    build_tsrf,
    form_clusters,
    voronoi_assignment,
)


# --- TSRF ---------------------------------------------------------------------

def test_tsrf_structure():
    tsrf = build_tsrf(4)
    c = tsrf.cluster
    assert c.n_sensors == 8
    for b in range(4):
        s, sp = tsrf.first_level(b), tsrf.second_level(b)
        assert c.can_hear(s, sp) and c.can_hear(sp, s)
        assert c.can_hear(HEAD, s)
        assert not c.can_hear(HEAD, sp)
        assert c.packets[s] == 0 and c.packets[sp] == 1
        assert tsrf.relaying_path(b) == (sp, s, HEAD)
    # no cross-branch links
    assert not c.can_hear(tsrf.first_level(0), tsrf.second_level(1))
    assert not c.can_hear(tsrf.first_level(0), tsrf.first_level(1))


def test_tsrf_branch_of():
    tsrf = build_tsrf(3)
    assert tsrf.branch_of(tsrf.first_level(2)) == 2
    assert tsrf.branch_of(tsrf.second_level(1)) == 1
    with pytest.raises(ValueError):
        tsrf.branch_of(HEAD)
    with pytest.raises(ValueError):
        tsrf.branch_of(99)


def test_tsrf_validation():
    with pytest.raises(ValueError):
        build_tsrf(0)
    tsrf = build_tsrf(2)
    with pytest.raises(ValueError):
        tsrf.first_level(5)


def test_tsrf_hop_counts():
    tsrf = build_tsrf(3)
    hops = tsrf.cluster.min_hop_counts()
    for b in range(3):
        assert hops[tsrf.first_level(b)] == 1
        assert hops[tsrf.second_level(b)] == 2


# --- Voronoi forming ------------------------------------------------------------

def test_voronoi_assignment_nearest_head():
    sensors = [[0.0, 0.0], [10.0, 0.0], [4.9, 0.0]]
    heads = [[0.0, 0.0], [10.0, 0.0]]
    assert voronoi_assignment(sensors, heads).tolist() == [0, 1, 0]


def test_voronoi_tie_breaks_to_lower_index():
    assert voronoi_assignment([[5.0, 0.0]], [[0.0, 0.0], [10.0, 0.0]]).tolist() == [0]


def test_form_clusters_partitions_everyone():
    rng = np.random.default_rng(0)
    sensors = rng.uniform(0, 300, size=(40, 2))
    heads = np.array([[75.0, 75.0], [225.0, 225.0]])
    net = form_clusters(sensors, heads, comm_range=60.0)
    assert net.n_clusters == 2
    total = sum(len(m) for m in net.members)
    assert total == 40
    # local clusters index consistently back to global sensors
    for h in range(2):
        for local, global_idx in enumerate(net.members[h]):
            assert np.allclose(
                net.clusters[h].positions[local], sensors[global_idx]
            )


# --- hop-by-hop discovery --------------------------------------------------------

def test_bfs_discover_covers_connected_cluster(chain_cluster):
    result = bfs_discover(chain_cluster)
    assert result.discovered == [0, 1, 2, 3]
    assert result.parent[0] == HEAD
    assert result.parent[3] == 2
    assert result.hops.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_bfs_discover_temporary_paths(chain_cluster):
    result = bfs_discover(chain_cluster)
    assert result.temporary_path(3) == (3, 2, 1, 0, HEAD)
    assert result.temporary_path(0) == (0, HEAD)


def test_bfs_discover_skips_unreachable():
    from repro.topology import Cluster

    c = Cluster.from_edges(3, [(0, 1)], [0])
    result = bfs_discover(c)
    assert 2 not in result.discovered
    assert result.parent[2] is None
    with pytest.raises(ValueError):
        result.temporary_path(2)


def test_bfs_discover_requires_bidirectional_links():
    from repro.topology import Cluster

    # 1 can hear 0's probe but 0 can't hear 1 back: unusable for relaying.
    c = Cluster.from_edges(2, [(1, 0)], [0], symmetric=False)
    result = bfs_discover(c)
    assert result.discovered == [0]

"""Tests for compatibility oracles: base semantics, protocol, physical."""

import numpy as np
import pytest

from repro.interference import (
    PhysicalModelOracle,
    ProtocolModelOracle,
    TabulatedOracle,
    group_nodes_distinct,
)
from repro.topology import HEAD


# --- base semantics -------------------------------------------------------------

def test_group_nodes_distinct():
    assert group_nodes_distinct([(0, 1), (2, 3)])
    assert not group_nodes_distinct([(0, 1), (1, 2)])  # node 1 reused
    assert not group_nodes_distinct([(0, 1), (2, 0)])
    assert not group_nodes_distinct([(0, 0)])  # self-link


def test_oracle_rejects_oversized_groups():
    oracle = TabulatedOracle([], max_group_size=2)
    with pytest.raises(ValueError):
        oracle.compatible([(0, 1), (2, 3), (4, 5)])


def test_empty_group_is_compatible():
    assert TabulatedOracle([]).compatible([])


def test_node_reuse_is_always_incompatible():
    oracle = TabulatedOracle([((0, 1), (1, 2))])  # even if tabulated!
    assert not oracle.compatible([(0, 1), (1, 2)])


@pytest.mark.parametrize("repeated_first", [True, False])
def test_repeated_link_never_reads_or_writes_the_single_link_verdict(repeated_first):
    """A group that repeats a link reuses its nodes and is rejected, in
    either call order, without touching the collapsed one-link memo key."""
    oracle = TabulatedOracle([], valid_links=[(1, 0), (0, HEAD), (2, HEAD)])
    if repeated_first:
        assert not oracle.compatible([(1, 0), (1, 0)])
        assert oracle.query_count == 0
        assert oracle.single_link_ok((1, 0))
    else:
        assert oracle.single_link_ok((1, 0))
        assert not oracle.compatible([(1, 0), (1, 0)])
    assert oracle.query_count == 1


def test_memoization_counts_queries_once():
    oracle = TabulatedOracle([((0, 1), (2, 3))])
    assert oracle.compatible([(0, 1), (2, 3)])
    count = oracle.query_count
    for _ in range(5):
        oracle.compatible([(2, 3), (0, 1)])  # same group, any order
    assert oracle.query_count == count


def test_tabulated_pairs_unordered():
    oracle = TabulatedOracle([((0, 1), (2, 3))])
    assert oracle.compatible([(0, 1), (2, 3)])
    assert oracle.compatible([(2, 3), (0, 1)])
    assert not oracle.compatible([(0, 1), (3, 2)])  # direction matters in links


def test_tabulated_valid_links_gate_singles():
    oracle = TabulatedOracle([], valid_links=[(0, 1)])
    assert oracle.compatible([(0, 1)])
    assert not oracle.compatible([(1, 0)])


# --- protocol model ---------------------------------------------------------------

def make_geo_cluster(positions, head, rng):
    import numpy as np

    from repro.topology import Deployment, Cluster

    dep = Deployment(
        head_position=np.array(head, dtype=float),
        positions=np.array(positions, dtype=float),
        comm_range=rng,
        side=200.0,
    )
    return Cluster.from_deployment(dep)


def test_protocol_model_guard_zone():
    # 0 at (0,0), 1 at (8,0) within range 10; 2 far away at (100,0), 3 at (108,0)
    cluster = make_geo_cluster(
        [[0, 0], [8, 0], [100, 0], [108, 0]], head=[50, 0], rng=10.0
    )
    oracle = ProtocolModelOracle(cluster, delta=0.5)
    # far pair does not disturb the near pair: senders > (1.5 * 10) from receivers
    assert oracle.compatible([(0, 1), (2, 3)])
    # a sender 9 m from another receiver violates the guard zone
    cluster2 = make_geo_cluster(
        [[0, 0], [8, 0], [17, 0], [25, 0]], head=[100, 0], rng=10.0
    )
    oracle2 = ProtocolModelOracle(cluster2, delta=0.5)
    assert not oracle2.compatible([(0, 1), (2, 3)])


def test_protocol_model_out_of_range_link_fails_alone():
    cluster = make_geo_cluster([[0, 0], [50, 0]], head=[10, 0], rng=10.0)
    oracle = ProtocolModelOracle(cluster)
    assert not oracle.compatible([(1, 0)])


def test_protocol_model_needs_positions(fig2_cluster):
    with pytest.raises(ValueError):
        ProtocolModelOracle(fig2_cluster)


# --- physical (additive SINR) model -------------------------------------------------

def test_physical_model_single_link_threshold():
    power = np.zeros((3, 3))
    power[1, 0] = 1e-9  # node 1 hears node 0
    oracle = PhysicalModelOracle(power, beta=10.0, noise=1e-11)
    assert oracle.compatible([(0, 1)])
    power2 = np.zeros((3, 3))
    power2[1, 0] = 5e-11  # below beta * noise
    assert not PhysicalModelOracle(power2, beta=10.0, noise=1e-11).compatible([(0, 1)])


def test_physical_model_accumulation_fig3():
    """Fig. 3: pairwise-compatible transmissions whose SUM breaks a receiver."""
    n = 6  # links: 0->1, 2->3, 4->5
    power = np.zeros((n + 1, n + 1))
    power[1, 0] = power[3, 2] = power[5, 4] = 1.0
    # each foreign sender puts 0.06 at receiver 3: alone fine (SINR 16),
    # together 0.12 -> SINR 8.3 < 10.
    power[3, 0] = power[3, 4] = 0.06
    oracle = PhysicalModelOracle(power, beta=10.0, noise=1e-6, max_group_size=3)
    assert oracle.compatible([(0, 1), (2, 3)])
    assert oracle.compatible([(4, 5), (2, 3)])
    assert oracle.compatible([(0, 1), (4, 5)])
    assert not oracle.compatible([(0, 1), (2, 3), (4, 5)])  # accumulation!


def test_physical_model_sinr_diagnostic():
    power = np.zeros((4, 4))
    power[1, 0] = 1.0
    power[1, 2] = 0.05
    oracle = PhysicalModelOracle(power, beta=10.0, noise=1e-6)
    alone = oracle.sinr((0, 1))
    with_interference = oracle.sinr((0, 1), concurrent=[(2, 0)])
    assert alone > with_interference
    assert with_interference == pytest.approx(1.0 / (1e-6 + 0.05))


def test_physical_model_validation():
    with pytest.raises(ValueError):
        PhysicalModelOracle(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PhysicalModelOracle(-np.ones((3, 3)))
    with pytest.raises(ValueError):
        PhysicalModelOracle(np.zeros((3, 3)), beta=0.0)
    with pytest.raises(ValueError):
        PhysicalModelOracle(np.zeros((3, 3)), noise=0.0)

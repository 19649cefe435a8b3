"""Tests for channel coloring and inter-cluster coordination."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    TokenSchedule,
    assign_channels,
    concurrency_gain,
    is_proper_coloring,
    six_color_planar,
)
from repro.mac.base import GROUND_SENSOR_PROPAGATION, sensor_power_for_range
from repro.radio.channel import RadioMedium
from repro.topology import form_clusters
from repro.sim import RngStreams, Simulator


def planar_grid_adjacency(rows, cols):
    """Grid graphs are planar; adjacency of the rows x cols lattice."""
    n = rows * cols
    adj = np.zeros((n, n), dtype=bool)
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                adj[i, i + 1] = adj[i + 1, i] = True
            if r + 1 < rows:
                adj[i, i + cols] = adj[i + cols, i] = True
    return adj


def test_six_coloring_proper_on_grid():
    adj = planar_grid_adjacency(4, 5)
    colors = six_color_planar(adj)
    assert is_proper_coloring(adj, colors)
    assert colors.max() < 6
    # grids are bipartite: min-degree peeling should use very few colors
    assert colors.max() <= 3


def test_six_coloring_triangle():
    adj = np.array(
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool
    )
    colors = six_color_planar(adj)
    assert is_proper_coloring(adj, colors)
    assert len(set(colors.tolist())) == 3


def test_coloring_empty_graph():
    adj = np.zeros((5, 5), dtype=bool)
    colors = six_color_planar(adj)
    assert (colors == 0).all()


def test_is_proper_coloring_detects_violations():
    adj = planar_grid_adjacency(2, 2)
    assert not is_proper_coloring(adj, np.zeros(4, dtype=int))
    assert not is_proper_coloring(adj, np.array([0, 1, 1, -1]))


def test_coloring_validation():
    with pytest.raises(ValueError):
        six_color_planar(np.triu(np.ones((3, 3), dtype=bool), 1))
    with pytest.raises(ValueError):
        six_color_planar(np.ones((2, 2), dtype=bool))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_coloring_proper_on_random_graphs(seed):
    """Hearing graphs need not be planar: on any graph the min-degree
    peeling colors properly, with at most max degree + 1 colors, and a
    complete graph takes one color per vertex."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    density = rng.uniform(0.0, 1.2)  # complete graphs in a sixth of draws
    upper = np.triu(rng.uniform(size=(n, n)) < density, 1)
    adj = upper | upper.T
    colors = six_color_planar(adj)
    assert is_proper_coloring(adj, colors)
    assert colors.max() <= adj.sum(axis=1).max()
    if adj.sum() == n * (n - 1):
        assert sorted(colors.tolist()) == list(range(n))


@pytest.mark.parametrize("loud_head, channels", [(False, [0, 0]), (True, [1, 0])])
def test_assign_channels_separates_clusters_one_head_reaches(loud_head, channels):
    """Clusters are adjacent when either one reaches the other's carrier
    sense: here only cluster 0's head, at its loud setting, reaches cluster
    1, whose radios never reach cluster 0."""
    prop = GROUND_SENSOR_PROPAGATION
    power = np.full(4, sensor_power_for_range(prop, 50.0, 1e-11))
    if loud_head:
        power[1] = sensor_power_for_range(prop, 200.0, 1e-12)
    positions = np.array([[0.0, 0.0], [10.0, 0.0], [200.0, 0.0], [210.0, 0.0]])
    medium = RadioMedium(Simulator(), positions, power, prop)
    rosters = [[0, 1], [2, 3]]
    assert not medium.in_cs_reach(rosters[0], rosters[1])
    assert medium.in_cs_reach(rosters[1], rosters[0]) == loud_head
    assert assign_channels(medium, rosters).tolist() == channels


# --- token rotation ------------------------------------------------------------------

def test_token_schedule_windows():
    sched = TokenSchedule(duty_durations=[1.0, 2.0, 0.5], handoff_cost=0.1)
    assert sched.period == pytest.approx(3.5 + 0.3)
    windows = sched.windows()
    assert windows[0] == (0.0, 1.0)
    assert windows[1] == pytest.approx((1.1, 3.1))
    assert sched.utilization() == pytest.approx(3.5 / 3.8)


def test_token_holder_at():
    sched = TokenSchedule(duty_durations=[1.0, 1.0], handoff_cost=0.5)
    assert sched.holder_at(0.5) == 0
    assert sched.holder_at(1.2) is None  # handoff gap
    assert sched.holder_at(2.0) == 1
    assert sched.holder_at(3.5) == 0  # wraps around


def test_token_validation():
    with pytest.raises(ValueError):
        TokenSchedule(duty_durations=[-1.0])
    with pytest.raises(ValueError):
        TokenSchedule(duty_durations=[1.0], handoff_cost=-0.1)


def test_concurrency_gain_vs_token():
    # token period = 1.0, colored period = max duty 0.3 -> gain ~3.33
    assert concurrency_gain([0.2, 0.3, 0.25, 0.25]) == pytest.approx(1.0 / 0.3)
    assert concurrency_gain([]) == 1.0
    with pytest.raises(ValueError):
        concurrency_gain([0.1, -0.1])


def test_formed_clusters_are_indexed_by_head():
    """Per-cluster lists (duties, channels) index clusters by head: cluster
    *h* holds exactly the sensors nearest head *h*."""
    rng = RngStreams(3).get("x")
    sensors = rng.uniform(0, 500, size=(40, 2))
    heads = np.array([[100.0, 100.0], [400.0, 100.0], [100.0, 400.0], [400.0, 400.0]])
    net = form_clusters(sensors, heads, comm_range=60.0)
    assert net.n_clusters == 4
    nearest = np.linalg.norm(sensors[:, None] - heads[None], axis=2).argmin(axis=1)
    for h in range(4):
        assert net.members[h].tolist() == np.flatnonzero(nearest == h).tolist()

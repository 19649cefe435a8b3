"""Fast-path tests: Dinic vs Edmonds-Karp, the warm solver vs cold references.

The contract under test (see DESIGN.md §7): the warm-start solver returns
a :class:`FlowSolution` bit-for-bit identical to the cold reference
engine's (``tests/routing/reference.py``) under either max-flow method
and either search, and it builds its network exactly once.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import FlowNetwork, solve_min_max_load
from repro.routing.minmax import _WarmEngine
from repro.topology import Cluster, uniform_square

from .reference import ColdEngine, feasible, reference_solve


@st.composite
def random_flow_instance(draw):
    n = draw(st.integers(3, 9))
    n_edges = draw(st.integers(1, 24))
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        cap = draw(st.integers(0, 12))
        edges.append((u, v, cap))
    return n, edges


def _twin_networks(n, edges):
    a, b = FlowNetwork(n), FlowNetwork(n)
    for u, v, cap in edges:
        a.add_edge(u, v, cap)
        b.add_edge(u, v, cap)
    return a, b


@given(random_flow_instance())
@settings(max_examples=60, deadline=None)
def test_dinic_matches_edmonds_karp(instance):
    n, edges = instance
    ek, dinic = _twin_networks(n, edges)
    assert ek.max_flow(0, n - 1) == dinic.max_flow(0, n - 1, method="dinic")


@given(random_flow_instance(), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_limited_solve_reaches_min_of_limit_and_max(instance, limit):
    n, edges = instance
    ek, limited = _twin_networks(n, edges)
    full = ek.max_flow(0, n - 1)
    got = limited.max_flow(0, n - 1, method="dinic", limit=limit)
    assert got == min(limit, full) or (got >= limit and got <= full)


def test_incremental_augment_after_capacity_raise():
    """The warm-start invariant on a concrete network: raising a capacity
    keeps the existing flow, and re-solving only adds the increment."""
    g = FlowNetwork(3)
    mid = g.add_edge(0, 1, 2)
    g.add_edge(1, 2, 10)
    assert g.max_flow(0, 2, method="dinic") == 2
    g.set_capacity(mid, 7)
    assert g.edge_flow(mid) == 2  # prior flow untouched
    assert g.max_flow(0, 2, method="dinic") == 5  # only the increment
    assert g.flow_value(0) == 7


def test_snapshot_restore_roundtrip():
    g = FlowNetwork(3)
    g.add_edge(0, 1, 4)
    g.add_edge(1, 2, 4)
    g.max_flow(0, 2)
    snap = g.snapshot_flow()
    g.reset_flow()
    assert g.flow_value(0) == 0
    g.restore_flow(snap)
    assert g.flow_value(0) == 4
    with pytest.raises(ValueError):
        g.restore_flow([0])


def test_invalid_method_rejected():
    g = FlowNetwork(2)
    g.add_edge(0, 1, 1)
    with pytest.raises(ValueError):
        g.max_flow(0, 1, method="push-relabel")


def _random_cluster(seed: int, n: int = 10) -> Cluster:
    dep = uniform_square(n, seed=seed)
    rng = np.random.default_rng(seed)
    packets = rng.integers(0, 4, size=n)
    c = Cluster.from_deployment(dep).with_packets(packets)
    c.energy[:] = rng.uniform(0.3, 1.0, size=n)
    return c


@given(st.integers(0, 25), st.booleans(), st.sampled_from(["binary", "linear"]))
@settings(max_examples=20, deadline=None)
def test_engines_and_methods_bit_identical(seed, energy_aware, search):
    """The warm solver equals the cold reference under either probe
    method and either δ search."""
    if energy_aware and search == "linear":
        search = "binary"  # the energy-aware search is candidate-bisection only
    c = _random_cluster(seed)
    sol = solve_min_max_load(c, energy_aware=energy_aware)
    for method in ("edmonds-karp", "dinic"):
        cold = reference_solve(
            c,
            energy_aware=energy_aware,
            search=search,
            engine=ColdEngine(c, method=method),
        )
        assert cold.max_load == sol.max_load
        assert (cold.loads == sol.loads).all()
        assert cold.flow_paths == sol.flow_paths
        assert (cold.capacities == sol.capacities).all()


@given(st.integers(0, 25))
@settings(max_examples=15, deadline=None)
def test_warm_probes_match_cold_solves(seed):
    """Every feasibility verdict the warm engine hands the search equals a
    from-scratch solve at the same capacities."""
    c = _random_cluster(seed, n=8)
    total = c.total_packets
    if total == 0:
        return
    rng = np.random.default_rng(seed + 1000)
    eng = _WarmEngine(c)
    # A deliberately non-monotone probe schedule (up, down, repeats).
    for _ in range(8):
        caps = rng.integers(0, max(2, total + 1), size=c.n_sensors).astype(np.int64)
        warm_verdict = eng.probe(caps)
        cold_verdict = feasible(c, caps) is not None
        assert warm_verdict == cold_verdict


def test_solve_counts_warm_engine_builds_once():
    c = _random_cluster(4)
    for energy_aware in (False, True):
        sol = solve_min_max_load(c, energy_aware=energy_aware)
        assert sol.stats is not None
        assert sol.stats.builds == 1
        # probes + exactly one canonical decomposition solve
        assert sol.stats.max_flow_calls == sol.stats.probes + 1


def test_warm_linear_search_never_resets():
    """The paper's δ++ loop is monotone, so every probe after the first
    warm-starts; driven through the warm engine it must land on the cold
    reference's solution."""
    c = _random_cluster(6)
    warm = reference_solve(c, search="linear", engine=_WarmEngine(c))
    cold = reference_solve(c, search="linear")
    assert warm.max_load == cold.max_load
    assert (warm.loads == cold.loads).all()
    assert warm.flow_paths == cold.flow_paths
    assert warm.stats.builds == 1


def test_repair_uses_warm_engine_by_default():
    from repro.routing.repair import repair_routing

    c = _random_cluster(7, n=12)
    result = repair_routing(c, dead=set())
    assert result.solution.stats is not None
    assert result.solution.stats.builds == 1  # one network: the warm engine

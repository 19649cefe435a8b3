"""Reference min-max solvers for the routing tests and the core-kernel bench.

:func:`repro.routing.solve_min_max_load` solves one way: one node-split
network per solve, warm-started Dinic probes, binary search.  This module
keeps the slower solvers it replaced, so tests can assert that the fast
path returns the same solution bit for bit:

* :func:`feasible` — the cold one-shot probe: build the network and solve
  from zero flow.
* :class:`ColdEngine` — rebuild and re-solve per probe, with either
  max-flow method.  The last feasible Edmonds-Karp network is cached, so
  the optimum is decomposed without a duplicate solve.
* :func:`reference_solve` — the δ/λ search driven by any probe engine
  (:class:`ColdEngine` by default), with the paper's δ++ loop as
  ``search="linear"``.  The energy-aware search is candidate bisection
  under either setting.

Every path decomposes the canonical flow (Edmonds-Karp from zero at the
optimal capacities) with the solver's own ``_decompose``.
"""

from __future__ import annotations

import numpy as np

from repro.routing import FlowNetwork, RoutingInfeasible
from repro.routing.minmax import (
    FlowSolution,
    SolveStats,
    _audit_solution,
    _build_network,
    _decompose,
)
from repro.topology import Cluster


def feasible(cluster: Cluster, caps: np.ndarray) -> FlowNetwork | None:
    """Cold one-shot probe; return the saturating network, or None."""
    net, _, _ = _build_network(cluster, caps)
    if net.max_flow(0, 1) == cluster.total_packets:
        return net
    return None


class ColdEngine:
    """Rebuild-per-probe feasibility, the solver's original behaviour."""

    def __init__(self, cluster: Cluster, method: str = "edmonds-karp"):
        self._cluster = cluster
        self._total = cluster.total_packets
        self._method = method
        self._cached_net: FlowNetwork | None = None
        self._cached_caps: np.ndarray | None = None
        self.stats = SolveStats()

    def probe(self, caps: np.ndarray) -> bool:
        net, _, _ = _build_network(self._cluster, caps)
        self.stats.builds += 1
        self.stats.probes += 1
        self.stats.max_flow_calls += 1
        if net.max_flow(0, 1, method=self._method) == self._total:
            if self._method == "edmonds-karp":
                # EK-from-zero on a fresh build is the canonical flow; keep it.
                self._cached_net = net
                self._cached_caps = caps.copy()
            return True
        return False

    def canonical_network(self, caps: np.ndarray) -> FlowNetwork:
        """A network at *caps* carrying the canonical saturating flow."""
        if self._cached_net is not None and np.array_equal(caps, self._cached_caps):
            return self._cached_net
        net, _, _ = _build_network(self._cluster, caps)
        self.stats.builds += 1
        self.stats.max_flow_calls += 1
        if net.max_flow(0, 1) != self._total:
            raise AssertionError("search returned infeasible capacities")
        return net


def reference_solve(
    cluster: Cluster,
    energy_aware: bool = False,
    search: str = "binary",
    engine=None,
) -> FlowSolution:
    """The min-max solve through *engine* (default: a cold Edmonds-Karp
    engine), with binary search or the paper's δ++ loop."""
    if search not in ("binary", "linear"):
        raise ValueError(f"search must be 'binary' or 'linear', got {search}")
    n = cluster.n_sensors
    total = cluster.total_packets
    if total == 0:
        zeros = np.zeros(n, dtype=np.int64)
        return FlowSolution(cluster, 0, zeros, {}, zeros.copy(), SolveStats())
    eng = ColdEngine(cluster) if engine is None else engine
    energy = cluster.energy
    if not energy_aware:
        caps_of = lambda delta: np.full(n, delta, dtype=np.int64)
        lo = max(1, int(cluster.packets.max()))
        if search == "linear":
            # The paper's loop: δ = lo, lo+1, ...
            best = lo
            while not eng.probe(caps_of(best)):
                best += 1
                if best > total:
                    raise RoutingInfeasible("no feasible δ up to total packets")
        else:
            # Exponential lift, then bisection of (lo-1, hi].
            hi = lo
            while not eng.probe(caps_of(hi)):
                if hi >= total:
                    raise RoutingInfeasible("no feasible δ up to total packets")
                hi = min(total, hi * 2)
            best = lo
            while best < hi:
                mid = (best + hi) // 2
                if eng.probe(caps_of(mid)):
                    hi = mid
                else:
                    best = mid + 1
        caps = caps_of(best)
    else:
        candidates = np.unique(
            np.arange(1, total + 1, dtype=np.float64)[:, None] / energy[None, :]
        )
        caps_of_lam = lambda lam: np.floor(lam * energy + 1e-9).astype(np.int64)
        lo_idx, hi_idx = 0, len(candidates) - 1
        if not eng.probe(caps_of_lam(candidates[hi_idx])):
            raise RoutingInfeasible("infeasible even at maximum normalized load")
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            if eng.probe(caps_of_lam(candidates[mid])):
                hi_idx = mid
            else:
                lo_idx = mid + 1
        caps = caps_of_lam(candidates[lo_idx])
    net = eng.canonical_network(caps)
    flow_paths, loads = _decompose(cluster, net)
    if energy_aware:
        max_load = float(max((loads[i] / energy[i] for i in range(n)), default=0.0))
    else:
        max_load = int(best)
    solution = FlowSolution(cluster, max_load, loads, flow_paths, caps, eng.stats)
    _audit_solution(cluster, net, solution)
    return solution

"""Cross-trial solver warm-start cache (DESIGN.md §12).

A parameter sweep re-runs the polling simulation over a grid of traffic
rates, fault regimes or MAC knobs, and most grid points share the *same*
topology: the deployment is seeded, so the hearing graph, per-sensor
demands and head adjacency are byte-identical across trials.  The min-max
routing solve (node-split Dinic over the paper's flow network) and the
k-disjoint backup-route computation are pure functions of that topology —
re-running them per trial is pure waste.

:class:`SolverCache` memoizes both behind a topology fingerprint: a SHA-256
over the exact bytes of ``hears`` / ``head_hears`` / ``packets`` /
``energy``.  A routing entry is keyed by ``(fingerprint, energy_aware)``,
the solver's only parameter.  Because the solvers are deterministic (no
RNG anywhere in the flow engine), a cache hit returns a solution that is
**bit-for-bit identical** to what a fresh solve would produce — enabling
the cache can never change simulation results, only skip redundant work.
Mid-run re-solves — route repair, re-clustering, failover adoption and
field re-forms, which all reach the solver through
``repair_routing(..., cache=...)`` — fingerprint their pruned cluster the
same way, so trials replaying the same fault plan share those solves too.

Sharing is safe because both artefacts are treated as immutable
everywhere: :class:`~repro.routing.minmax.FlowSolution` is only read after
construction (``PathRotator`` and the schedulers never write into it), and
planning clusters are built fresh per MAC via ``with_packets`` copies.

The cache is opt-in (``PollingSimConfig.solver_cache``) and unbounded —
a sweep touches a handful of distinct topologies, each a few kilobytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..topology.cluster import Cluster
from .backup import BackupRoutes, compute_backup_routes
from .minmax import FlowSolution, solve_min_max_load

__all__ = ["SolverCache", "SolverCacheStats", "topology_fingerprint"]


def topology_fingerprint(cluster: Cluster) -> bytes:
    """SHA-256 digest of everything the routing solvers read.

    Covers the hearing graph, head adjacency, per-sensor demands and
    residual-energy levels (the energy-aware solver weighs those), plus
    the array shapes so transposed/resized inputs can never alias.
    """
    h = hashlib.sha256()
    for arr in (cluster.hears, cluster.head_hears, cluster.packets, cluster.energy):
        a = np.ascontiguousarray(arr)
        h.update(str(a.shape).encode())
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.digest()


@dataclass
class SolverCacheStats:
    """Hit/miss counters, split by artefact kind."""

    routing_hits: int = 0
    routing_misses: int = 0
    backup_hits: int = 0
    backup_misses: int = 0
    oracle_hits: int = 0
    oracle_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "routing_hits": self.routing_hits,
            "routing_misses": self.routing_misses,
            "backup_hits": self.backup_hits,
            "backup_misses": self.backup_misses,
            "oracle_hits": self.oracle_hits,
            "oracle_misses": self.oracle_misses,
        }


@dataclass
class SolverCache:
    """Memoized routing + backup solves keyed by topology fingerprint."""

    stats: SolverCacheStats = field(default_factory=SolverCacheStats)
    _routing: dict[tuple, FlowSolution] = field(default_factory=dict)
    _backups: dict[tuple, BackupRoutes] = field(default_factory=dict)
    _oracle_memos: dict[tuple, tuple[dict, dict]] = field(default_factory=dict)

    def routing_for(
        self, cluster: Cluster, energy_aware: bool = False
    ) -> FlowSolution:
        """The min-max flow solution for *cluster* (solved once per topology)."""
        key = (topology_fingerprint(cluster), energy_aware)
        sol = self._routing.get(key)
        if sol is None:
            self.stats.routing_misses += 1
            sol = solve_min_max_load(cluster, energy_aware=energy_aware)
            self._routing[key] = sol
        else:
            self.stats.routing_hits += 1
        return sol

    def backups_for(self, solution: FlowSolution, k: int) -> BackupRoutes:
        """The k-disjoint backup bundle for *solution* (solved once per
        topology/solution/k triple).

        The key covers the solution's flow paths as well as its topology:
        two solutions over one topology (plain vs energy-aware) have
        different primaries, hence different disjointness constraints.
        """
        paths = hashlib.sha256(
            repr(
                sorted(
                    (s, tuple((tuple(p), u) for p, u in alts))
                    for s, alts in solution.flow_paths.items()
                )
            ).encode()
        ).digest()
        key = (topology_fingerprint(solution.cluster), paths, k)
        bk = self._backups.get(key)
        if bk is None:
            self.stats.backup_misses += 1
            bk = compute_backup_routes(solution, k)
            self._backups[key] = bk
        else:
            self.stats.backup_hits += 1
        return bk

    def adopt_oracle(self, oracle) -> None:
        """Share SINR verdict memos across oracles with identical physics.

        A :class:`~repro.interference.physical.PhysicalModelOracle` verdict
        is a pure function of the received-power snapshot, the SINR
        threshold, the noise floor and the group-size cap — so oracles
        built from byte-identical PHY state may share one memo.  The dicts
        are shared *by reference* (not copied): later trials both benefit
        from and extend the same memo.  ``query_count`` stays per-oracle;
        it only counts genuine model evaluations, which is exactly what a
        warm memo avoids.
        """
        power = getattr(oracle, "power", None)
        if power is None:
            return  # tabulated/gadget oracles: memo cost is trivial
        key = (
            hashlib.sha256(np.ascontiguousarray(power).tobytes()).digest(),
            oracle.beta,
            oracle.noise,
            oracle.max_group_size,
        )
        memos = self._oracle_memos.get(key)
        if memos is None:
            self.stats.oracle_misses += 1
            self._oracle_memos[key] = (oracle._memo, oracle._seq_memo)
        else:
            self.stats.oracle_hits += 1
            oracle._memo, oracle._seq_memo = memos

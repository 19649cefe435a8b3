"""Min-max-load relay routing via network flow (paper Sec. III-A).

Construction (following the paper exactly): each sensor *i* becomes an
"input" node ``in_i`` and an "output" node ``out_i`` joined by an arc of
capacity δ; ``out_i`` has infinite-capacity arcs to the input node of every
sensor that can hear *i* and to the sink *t* if the head hears *i*; a source
*s* feeds ``in_i`` with capacity = packets generated by *i*.  A flow of
value Σ packets exists iff the packets can be routed with no sensor's load
exceeding δ.  The minimum such δ is found by binary search (the paper
increments δ from 1; both are exact, and the tests run the paper's loop
as a reference and assert they agree).

The energy-aware variant (different residual energies) replaces the uniform
δ with per-sensor capacities ``floor(lam * e_i)`` and minimizes ``lam`` — the
max *normalized* load ``load_i / e_i``.

Probe engine
------------
Each δ/λ candidate is a *feasibility probe* ("does a saturating flow
exist?").  The node-split network is built **once** per solve, and probes
exploit the warm-start invariant: raising capacities never invalidates a
feasible flow, so a probe at capacities ≥ the previous probe's keeps the
existing flow and only augments the residual (Dinic).  Probes at lower
capacities restore a dominated flow or reset it, but still reuse the built
network.

The solution depends only on the feasibility *values* the search sees
(identical under any exact max-flow algorithm) and on a canonical flow:
the final decomposition re-solves with Edmonds-Karp from zero flow at the
optimal capacities, whose result depends only on the (deterministic)
network construction order.  The tests keep a cold rebuild-per-probe
engine and the δ++ loop as references and assert bit-for-bit equality.

:func:`_build_network` and :func:`_unit_walker` also serve the k-disjoint
backup routes (:mod:`repro.routing.backup`), which run the same network
with zero supplies and unit capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import validate as _validate
from ..obs import current as _obs_current
from ..obs import profile_span as _profile_span
from ..topology.cluster import HEAD, Cluster
from .maxflow import INF, FlowNetwork
from .paths import RelayingPath, RoutingPlan

__all__ = [
    "FlowSolution",
    "SolveStats",
    "solve_min_max_load",
    "RoutingInfeasible",
]


class RoutingInfeasible(RuntimeError):
    """Raised when no δ can route all packets (cluster disconnected)."""


@dataclass
class SolveStats:
    """Observability counters for one :func:`solve_min_max_load` call.

    ``builds`` counts node-split network constructions (one per solve),
    ``probes`` counts feasibility questions asked by the δ/λ search, and
    ``max_flow_calls`` counts augmentation solves: one per probe plus the
    canonical solve for the decomposition.
    """

    builds: int = 0
    probes: int = 0
    max_flow_calls: int = 0


@dataclass
class FlowSolution:
    """The routing produced by :func:`solve_min_max_load`.

    ``flow_paths[i]`` lists ``(path, units)`` pairs: the unit-decomposed
    relaying paths of sensor *i*'s own packets.  ``loads[j]`` is the flow
    through ``in_j -> out_j`` (everything *j* transmits).  ``max_load`` is
    the optimal δ (or, energy-aware, the max normalized load achieved).
    """

    cluster: Cluster
    max_load: float
    loads: np.ndarray
    flow_paths: dict[int, list[tuple[RelayingPath, int]]]
    capacities: np.ndarray
    stats: SolveStats | None = None

    def routing_plan(self, path_choice: dict[int, int] | None = None) -> RoutingPlan:
        """Fix one path per sensor for a duty cycle.

        By default every sensor uses its highest-volume path (ties to the
        shorter one); :mod:`repro.routing.rotation` supplies per-cycle
        choices that realize the flow split proportions over time.
        """
        choice = path_choice or {}
        paths: dict[int, RelayingPath] = {}
        for sensor, alternatives in self.flow_paths.items():
            if not alternatives:
                continue
            idx = choice.get(sensor)
            if idx is None:
                idx = min(
                    range(len(alternatives)),
                    key=lambda k: (-alternatives[k][1], len(alternatives[k][0])),
                )
            paths[sensor] = alternatives[idx][0]
        return RoutingPlan(cluster=self.cluster, paths=paths)

    def next_hop_flows(self) -> dict[int, dict[int, int]]:
        """Aggregate per-sensor forwarding volumes: ``{sender: {next: units}}``.

        This is the view the sector partitioner's flow-merging step consumes;
        a sensor with two or more next hops is a *flow-splitting* sensor.
        """
        flows: dict[int, dict[int, int]] = {}
        for alternatives in self.flow_paths.values():
            for path, units in alternatives:
                for a, b in zip(path, path[1:]):
                    flows.setdefault(a, {})
                    flows[a][b] = flows[a].get(b, 0) + units
        return flows

    @property
    def splitting_sensors(self) -> list[int]:
        """Sensors whose flow leaves over more than one next hop."""
        return sorted(
            s for s, nxt in self.next_hop_flows().items() if len(nxt) > 1
        )


def _build_network(
    cluster: Cluster, caps: np.ndarray
) -> tuple[FlowNetwork, list[int], list[int]]:
    """The paper's node-split network for per-sensor capacities *caps*.

    Node layout: 0 = source, 1 = sink, ``2+2i`` = in_i, ``3+2i`` = out_i.
    Source arcs carry ``cluster.packets``.  Returns (network, source-edge
    ids, through-edge ids); the edge ids let callers re-cap the network in
    place instead of rebuilding it.
    """
    n = cluster.n_sensors
    net = FlowNetwork(2 + 2 * n)
    source_edges: list[int] = []
    through_edges: list[int] = []
    for i in range(n):
        source_edges.append(net.add_edge(0, 2 + 2 * i, int(cluster.packets[i])))
        through_edges.append(net.add_edge(2 + 2 * i, 3 + 2 * i, int(caps[i])))
    # out_i -> in_j for every j that hears i; out_i -> sink if the head hears i.
    hears = cluster.hears
    for i in range(n):
        for j in np.flatnonzero(hears[:, i]):
            net.add_edge(3 + 2 * i, 2 + 2 * int(j), INF)
        if cluster.head_hears[i]:
            net.add_edge(3 + 2 * i, 1, INF)
    return net, source_edges, through_edges


class _WarmEngine:
    """Build the node-split network once; answer probes incrementally.

    The invariant: raising the ``in_i -> out_i`` capacities can only add
    residual capacity, so the flow found by the previous probe stays
    feasible and max-flow augmentation completes it.  Probes at lower
    capacities (binary-search midpoints) reset the flow but keep the built
    network — construction, not augmentation, dominates cold probe cost.
    """

    def __init__(self, cluster: Cluster):
        self._total = cluster.total_packets
        n = cluster.n_sensors
        self._caps = np.zeros(n, dtype=np.int64)
        self._net, _, self._through = _build_network(cluster, self._caps)
        self._sent = 0
        # Flow state at the highest infeasible probe so far.  The searches
        # only ever re-probe *above* a failed candidate, and a flow valid at
        # lower capacities is valid at higher ones, so down-probes restore
        # this instead of restarting from zero.
        self._lo_flow: list[int] | None = None
        self._lo_caps: np.ndarray | None = None
        self._lo_sent = 0
        self.stats = SolveStats(builds=1)

    def _apply_caps(self, caps: np.ndarray) -> None:
        through = self._through
        net = self._net
        old = self._caps
        for i in np.flatnonzero(caps != old):
            net.set_capacity(through[int(i)], int(caps[int(i)]))
        self._caps = caps.copy()

    def probe(self, caps: np.ndarray) -> bool:
        caps = np.asarray(caps, dtype=np.int64)
        if not (caps >= self._caps).all():
            # Capacity decreased somewhere: the prior flow may overfill an
            # edge.  Fall back to the best dominated feasible flow we have.
            if self._lo_flow is not None and (self._lo_caps <= caps).all():
                self._net.restore_flow(self._lo_flow)
                self._sent = self._lo_sent
            else:
                self._net.reset_flow()
                self._sent = 0
        self._apply_caps(caps)
        self.stats.probes += 1
        self.stats.max_flow_calls += 1
        self._sent += self._net.max_flow(
            0, 1, method="dinic", limit=self._total - self._sent
        )
        if self._sent < self._total:
            self._lo_flow = self._net.snapshot_flow()
            self._lo_caps = caps.copy()
            self._lo_sent = self._sent
        return self._sent == self._total

    def canonical_network(self, caps: np.ndarray) -> FlowNetwork:
        """The built network re-solved to the canonical flow at *caps*.

        Edmonds-Karp from zero flow depends only on the network structure,
        which is identical to a fresh ``_build_network`` (same construction
        order), so the decomposition matches a cold rebuild bit-for-bit.
        """
        self._net.reset_flow()
        self._sent = 0
        self._apply_caps(np.asarray(caps, dtype=np.int64))
        self.stats.max_flow_calls += 1
        # limit == the known max-flow value: the flow is identical to the
        # unlimited EK solve, only the final failing path search is skipped.
        self._sent = self._net.max_flow(0, 1, limit=self._total)
        if self._sent != self._total:
            raise AssertionError("search returned infeasible capacities")
        return self._net


def _unit_walker(net: FlowNetwork) -> Callable[[int], RelayingPath]:
    """Peel *net*'s flow into unit relaying paths, one per ``walk(i)`` call.

    ``walk(i)`` follows positive-flow forward edges from ``in_i`` to the
    sink, spends one unit on each, and returns ``(i, relays…, HEAD)``.
    Edges are tried in insertion order, so the walk is deterministic.
    Cycles (which a max-flow can legally contain) are cancelled on sight:
    when the walk revisits a node, the loop's flow is zeroed and the walk
    restarts.
    """
    # remaining[eid] = flow left to assign on forward edge eid.  Forward-edge
    # lists come from the network's cached per-node index (built once).
    remaining: dict[int, int] = {}
    head_of: dict[int, int] = {}
    out_by_node: dict[int, list[int]] = {}
    for u in range(net.n_nodes):
        for eid in net.out_edges(u):
            f = net.edge_flow(eid)
            if f > 0:
                remaining[eid] = f
                head_of[eid] = net.edge_endpoints(eid)[1]
                out_by_node.setdefault(u, []).append(eid)

    def take_step(u: int) -> int | None:
        for eid in out_by_node.get(u, ()):
            if remaining[eid] > 0:
                return eid
        return None

    def walk(sensor: int) -> RelayingPath:
        start = 2 + 2 * sensor
        while True:
            path_nodes = [start]
            path_edges: list[int] = []
            seen_at: dict[int, int] = {start: 0}
            u = start
            while u != 1:
                eid = take_step(u)
                if eid is None:
                    raise RoutingInfeasible(
                        f"flow decomposition stuck at graph node {u} "
                        f"for sensor {sensor} (should be impossible)"
                    )
                v = head_of[eid]
                if v in seen_at:
                    # Cancel the cycle seen_at[v] .. end plus this edge.
                    for ce in path_edges[seen_at[v]:]:
                        remaining[ce] -= 1
                    remaining[eid] -= 1
                    break  # restart the walk
                path_edges.append(eid)
                path_nodes.append(v)
                seen_at[v] = len(path_nodes) - 1
                u = v
            else:  # reached the sink
                for eid in path_edges:
                    remaining[eid] -= 1
                # Graph path: in_i, out_i, in_j, out_j, ..., sink.  The
                # sensors are the *in* nodes.
                return tuple(
                    (g - 2) // 2 for g in path_nodes if g != 1 and g % 2 == 0
                ) + (HEAD,)

    return walk


def _decompose(
    cluster: Cluster, net: FlowNetwork
) -> tuple[dict[int, list[tuple[RelayingPath, int]]], np.ndarray]:
    """Strip the flow into unit relaying paths, one bundle per sensor.

    Loads are read off the decomposed paths, i.e. *after* the walker
    cancelled any cycles, so reported loads match the returned paths
    exactly.
    """
    n = cluster.n_sensors
    walk = _unit_walker(net)
    flow_paths: dict[int, list[tuple[RelayingPath, int]]] = {}
    for i in range(n):
        pk = int(cluster.packets[i])
        if pk == 0:
            continue
        bundles: dict[RelayingPath, int] = {}
        for _ in range(pk):
            path = walk(i)
            bundles[path] = bundles.get(path, 0) + 1
        # Highest-volume bundle first; makespan-friendly tie-break by length.
        flow_paths[i] = sorted(bundles.items(), key=lambda kv: (-kv[1], len(kv[0])))
    loads = np.zeros(n, dtype=np.int64)
    for alternatives in flow_paths.values():
        for path, units in alternatives:
            for node in path[:-1]:
                loads[node] += units
    return flow_paths, loads


def _audit_solution(cluster: Cluster, net: FlowNetwork, solution: FlowSolution) -> None:
    """Sec. III-A invariants on the solution just produced (DESIGN.md §8):
    flow conservation on the node-split network, demand met per sensor,
    decomposed path loads within the certified capacities, positive
    planning energy.  A no-op when the monitor is ``off``."""
    if not _validate.MONITOR.enabled:
        return
    hint = (
        f"solve_min_max_load(n={cluster.n_sensors}, "
        f"total_packets={cluster.total_packets})"
    )
    _validate.check_network_flow(net, 0, 1, hint=hint)
    _validate.check_flow_solution(cluster, solution, hint=hint)


def solve_min_max_load(
    cluster: Cluster, energy_aware: bool = False
) -> FlowSolution:
    """Find routing minimizing the maximum (normalized) sensor load.

    When *energy_aware* is False (the paper's base case), all sensors get
    capacity δ and the minimum feasible integer δ is found.  When True,
    sensor *i* gets capacity ``floor(lam * e_i)`` and the minimum feasible
    ``lam`` over the candidate set ``{k / e_i}`` is found (minimizing max
    load/energy).

    The solve runs under a wall-clock ``routing.solve`` profile span, and
    its :class:`SolveStats` are published onto the active telemetry's
    metrics registry (``routing.probes`` etc.) — the stats object stays
    the single source of truth, the registry is a cumulative view of it.
    """
    with _profile_span(
        "routing.solve",
        histogram="routing.solve_wall_s",
        energy_aware=energy_aware,
    ):
        solution = _solve_min_max_load_impl(cluster, energy_aware)
    tel = _obs_current()
    if tel.enabled:
        metrics = tel.metrics
        stats = solution.stats
        if stats is not None:
            metrics.counter("routing.solves").inc()
            metrics.counter("routing.probes").inc(stats.probes)
            metrics.counter("routing.builds").inc(stats.builds)
            metrics.counter("routing.max_flow_calls").inc(stats.max_flow_calls)
        metrics.gauge("routing.max_load").set(float(solution.max_load))
        relay = metrics.histogram("routing.relay_load")
        for load in solution.loads:
            relay.observe(float(load))
    return solution


def _solve_min_max_load_impl(
    cluster: Cluster, energy_aware: bool = False
) -> FlowSolution:
    """Implementation of :func:`solve_min_max_load`."""
    total = cluster.total_packets
    n = cluster.n_sensors
    if total == 0:
        return FlowSolution(
            cluster=cluster,
            max_load=0,
            loads=np.zeros(n, dtype=np.int64),
            flow_paths={},
            capacities=np.zeros(n, dtype=np.int64),
            stats=SolveStats(),
        )
    if not cluster.is_connected():
        # Only sensors with packets actually need a path; check just those.
        hops = cluster.min_hop_counts()
        blocked = [
            i for i in range(n) if cluster.packets[i] > 0 and not np.isfinite(hops[i])
        ]
        if blocked:
            raise RoutingInfeasible(
                f"sensors {blocked} have packets but no path to the head"
            )

    eng = _WarmEngine(cluster)
    energy = cluster.energy
    if not energy_aware:
        caps_of = lambda delta: np.full(n, delta, dtype=np.int64)
        lo = max(1, int(cluster.packets.max()))
        # Exponential lift (monotone: warm-startable), then bisection.
        hi = lo
        while not eng.probe(caps_of(hi)):
            if hi >= total:
                raise RoutingInfeasible("no feasible δ up to total packets")
            hi = min(total, hi * 2)
        # Invariant: hi feasible; search (lo-1, hi].
        low, high = lo, hi
        while low < high:
            mid = (low + high) // 2
            if eng.probe(caps_of(mid)):
                high = mid
            else:
                low = mid + 1
        caps = caps_of(low)
    else:
        # Minimize lam with caps floor(lam * e_i).  The candidate set
        # {k / e_i : 1 <= k <= total} is materialized vectorized (it is
        # O(n * total) values) and bisected.
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
        max_load = int(low)
    solution = FlowSolution(
        cluster=cluster,
        max_load=max_load,
        loads=loads,
        flow_paths=flow_paths,
        capacities=caps,
        stats=eng.stats,
    )
    _audit_solution(cluster, net, solution)
    return solution

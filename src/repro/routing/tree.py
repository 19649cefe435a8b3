"""Flow merging: turn the min-max routing DAG into a relay tree (Sec. IV-B).

The union of optimal relaying paths "is almost surely not a tree": some
sensors split their flow over several next hops.  The sector partitioner
needs a tree, so each *flow-splitting* sensor is forced to "choose a
parent": the next hop minimizing the maximum sensor load along the path
from that parent to the cluster head.  Merging starts at splitting sensors
closest to the head so that the path from any candidate parent onward is
already merged (or deterministically resolvable).

The result is a :class:`RelayTree`: a parent pointer per participating
sensor, from which first-level branches (a first-level sensor plus all its
dependents) fall out directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.cluster import HEAD, Cluster
from .minmax import FlowSolution
from .paths import RelayingPath, RoutingPlan

__all__ = ["RelayTree", "merge_flow_to_tree"]


@dataclass
class RelayTree:
    """A relaying tree rooted at the head.

    ``parent[s]`` is the node sensor *s* forwards to (a sensor or ``HEAD``).
    Sensors with neither packets nor relaying duty are absent.
    """

    cluster: Cluster
    parent: dict[int, int]

    def __post_init__(self) -> None:
        # Validate: acyclic, ends at HEAD, hops audible.
        for s in self.parent:
            seen = {s}
            node = s
            while node != HEAD:
                nxt = self.parent.get(node)
                if nxt is None:
                    raise ValueError(f"sensor {node} has no parent but is not the head")
                if not self.cluster.can_hear(nxt, node):
                    raise ValueError(f"tree hop {node} -> {nxt} is not audible")
                if nxt in seen:
                    raise ValueError(f"parent pointers contain a cycle through {nxt}")
                seen.add(nxt)
                node = nxt

    @property
    def members(self) -> list[int]:
        return sorted(self.parent)

    def path_from(self, sensor: int) -> RelayingPath:
        """The tree path ``(sensor, ..., HEAD)``."""
        if sensor not in self.parent:
            raise KeyError(f"sensor {sensor} is not in the relay tree")
        path = [sensor]
        node = sensor
        while node != HEAD:
            node = self.parent[node]
            path.append(node)
        return tuple(path)

    def children(self, node: int) -> list[int]:
        return sorted(s for s, p in self.parent.items() if p == node)

    def first_level_roots(self) -> list[int]:
        """Sensors parented directly to the head (branch roots)."""
        return self.children(HEAD)

    def subtree(self, root: int) -> list[int]:
        """All sensors in *root*'s subtree, root included (BFS order)."""
        out = [root]
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                kids = self.children(node)
                out.extend(kids)
                nxt.extend(kids)
            frontier = nxt
        return out

    def branches(self) -> dict[int, list[int]]:
        """First-level branches: ``{root: [root, *dependents]}`` (Sec. IV-B)."""
        return {r: self.subtree(r) for r in self.first_level_roots()}

    def routing_plan(self) -> RoutingPlan:
        """Paths along the tree for every member sensor with packets."""
        paths = {
            s: self.path_from(s)
            for s in self.parent
            if self.cluster.packets[s] > 0
        }
        return RoutingPlan(cluster=self.cluster, paths=paths)

    def loads(self) -> np.ndarray:
        """Per-sensor transmit load along the tree (own + relayed packets)."""
        n = self.cluster.n_sensors
        load = np.zeros(n, dtype=np.int64)
        for s in self.parent:
            pk = int(self.cluster.packets[s])
            if pk == 0:
                continue
            node = s
            while node != HEAD:
                load[node] += pk
                node = self.parent[node]
        return load


def merge_flow_to_tree(solution: FlowSolution) -> RelayTree:
    """Merge a flow solution's splitting sensors until the DAG is a tree.

    Follows Sec. IV-B: repeatedly take the flow-splitting sensor closest to
    the head; among its next hops choose the parent whose onward path to the
    head has the smallest maximum sensor load; redirect all of the sensor's
    outflow through that parent.
    """
    cluster = solution.cluster
    flows: dict[int, dict[int, int]] = {
        s: dict(nxt) for s, nxt in solution.next_hop_flows().items()
    }
    hop_counts = cluster.min_hop_counts()

    def loads_now() -> dict[int, int]:
        return {s: sum(nxt.values()) for s, nxt in flows.items()}

    def pick_hop(nxt: dict[int, int]) -> int:
        """Deterministic next hop: max volume, ties prefer HEAD then low id."""
        best = max(nxt.values())
        cands = [q for q, v in nxt.items() if v == best]
        return HEAD if HEAD in cands else min(cands)

    def chain_from(node: int) -> list[int]:
        """Deterministic onward path following max-volume next hops."""
        chain: list[int] = []
        seen: set[int] = set()
        while node != HEAD:
            if node in seen:
                raise RuntimeError(f"flow graph contains a cycle through {node}")
            seen.add(node)
            chain.append(node)
            nxt = flows.get(node)
            if not nxt:
                raise RuntimeError(f"sensor {node} has inflow but no outflow")
            node = pick_hop(nxt)
        return chain

    def reduce_down(node: int, amount: int) -> None:
        """Remove *amount* units of outflow from *node*'s chain (conserving flow)."""
        guard = 0
        while node != HEAD and amount > 0:
            guard += 1
            if guard > 2 * cluster.n_sensors + 2:
                raise RuntimeError("flow reduction walk exceeded node count (cycle?)")
            nxt = flows.get(node)
            if not nxt:
                raise RuntimeError(
                    f"flow conservation violated: {node} owes {amount} units "
                    "but has no outflow"
                )
            # Drain from the largest-volume hop first.
            hop = pick_hop(nxt)
            d = min(nxt[hop], amount)
            nxt[hop] -= d
            if nxt[hop] == 0:
                del nxt[hop]
            if not nxt:
                del flows[node]
            if hop == HEAD:
                # Drained units terminated at the head; any remainder came
                # from other hops of the same node — keep draining it.
                amount -= d
                continue
            # The drained units continued from `hop`; follow them down.
            if amount > d:
                # The rest of this node's debt drains via its other hops.
                reduce_down(node, amount - d)
            node = hop
            amount = d

    def add_down(node: int, amount: int) -> None:
        """Push *amount* extra units along *node*'s chain to the head."""
        guard = 0
        while node != HEAD:
            guard += 1
            if guard > 2 * cluster.n_sensors + 2:
                raise RuntimeError("flow addition walk exceeded node count (cycle?)")
            nxt = flows.get(node)
            if not nxt:
                raise RuntimeError(f"cannot extend flow: {node} has no onward hop")
            hop = pick_hop(nxt)
            nxt[hop] += amount
            node = hop

    # -- merge loop ------------------------------------------------------------
    while True:
        splitting = [s for s, nxt in flows.items() if len(nxt) > 1]
        if not splitting:
            break
        s = min(splitting, key=lambda x: (hop_counts[x], x))
        out = flows[s]
        candidates = sorted(out)
        # Score each candidate parent by the max load along its onward chain.
        loads = loads_now()

        def parent_score(p: int) -> tuple:
            if p == HEAD:
                return (0, -1)
            chain = chain_from(p)
            return (max(loads[c] for c in chain), p)

        parent = min(candidates, key=parent_score)
        # Redirect: remove every non-parent share, push it through `parent`.
        moved = 0
        for q in list(out):
            if q == parent:
                continue
            units = out.pop(q)
            moved += units
            if q != HEAD:
                reduce_down(q, units)
        out[parent] = out.get(parent, 0) + moved
        if parent != HEAD:
            add_down(parent, moved)

    parent_map = {s: next(iter(nxt)) for s, nxt in flows.items() if nxt}
    return RelayTree(cluster=cluster, parent=parent_map)

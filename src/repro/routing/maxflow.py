"""Maximum flow, implemented from scratch (no networkx dependency here).

The paper's routing step (Sec. III-A) runs "the Ford-Fulkerson algorithm" on
a node-split graph.  We implement two exact, deterministic augmenting-path
algorithms over one residual representation:

* **Edmonds-Karp** (BFS augmenting paths — Ford-Fulkerson with the
  shortest-path rule), the original reference implementation; and
* **Dinic** (BFS level graph + DFS blocking flows), asymptotically and
  practically faster on the dense node-split networks the δ/λ search probes.

Both run on the *residual* graph, so calling :meth:`FlowNetwork.max_flow`
on a network that already carries flow simply augments what is there.  This
is the warm-start primitive the min-max-load search exploits: **raising an
edge capacity never invalidates an existing feasible flow**, so a monotone
sequence of capacity probes can keep its flow and pay only for the extra
augmentation (see ``routing/minmax.py`` and DESIGN.md §7).

The residual-graph representation is the classic paired-edge scheme: edge
``2k`` and its reverse ``2k+1``, ``residual(e) = cap[e] - flow[e]`` with
``flow[e^1] = -flow[e]``.  Capacities are integers; ``INF`` encodes the
paper's "infinite capacity" arcs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["FlowNetwork", "INF", "MAXFLOW_METHODS"]

INF: int = 10**12
"""Stand-in for infinite capacity (larger than any meaningful packet total)."""

MAXFLOW_METHODS = ("edmonds-karp", "dinic")
"""Valid ``method=`` arguments to :meth:`FlowNetwork.max_flow`."""


@dataclass
class _Edge:
    __slots__ = ("to", "cap", "flow")
    to: int
    cap: int
    flow: int


class FlowNetwork:
    """A directed flow network over nodes ``0..n_nodes-1``.

    >>> g = FlowNetwork(4)
    >>> _ = g.add_edge(0, 1, 3); _ = g.add_edge(1, 2, 2); _ = g.add_edge(2, 3, 5)
    >>> g.max_flow(0, 3)
    2
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError(f"network needs at least one node, got {n_nodes}")
        self.n_nodes = n_nodes
        self._edges: list[_Edge] = []
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self._forward_adj: list[list[int]] | None = None
        self.solve_calls = 0
        """Number of :meth:`max_flow` invocations (observability for tests)."""

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add arc ``u -> v`` with capacity *cap*; returns the edge id.

        The reverse residual edge is ``id ^ 1``.
        """
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n_nodes}")
        if cap < 0:
            raise ValueError(f"capacity must be non-negative, got {cap}")
        eid = len(self._edges)
        self._edges.append(_Edge(v, cap, 0))
        self._edges.append(_Edge(u, 0, 0))
        self._adj[u].append(eid)
        self._adj[v].append(eid + 1)
        self._forward_adj = None
        return eid

    def set_capacity(self, edge_id: int, cap: int) -> None:
        """Change an edge's capacity.

        *Raising* a capacity keeps any existing flow feasible, so a
        subsequent :meth:`max_flow` call warm-starts from it.  *Lowering*
        a capacity below the edge's current flow leaves the network in an
        infeasible state — call :meth:`reset_flow` before re-solving.
        """
        if cap < 0:
            raise ValueError(f"capacity must be non-negative, got {cap}")
        self._edges[edge_id].cap = cap

    def reset_flow(self) -> None:
        """Zero all flow so the network can be re-solved after capacity edits."""
        for e in self._edges:
            e.flow = 0

    def edge_flow(self, edge_id: int) -> int:
        return self._edges[edge_id].flow

    def out_edges(self, u: int) -> list[int]:
        """Ids of *forward* edges leaving u (even ids only).

        The per-node lists are computed once and cached (invalidated by
        :meth:`add_edge`); callers must treat the returned list as
        read-only.
        """
        if self._forward_adj is None:
            self._forward_adj = [
                [eid for eid in adj if eid % 2 == 0] for adj in self._adj
            ]
        return self._forward_adj[u]

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """(u, v) of a forward edge."""
        if edge_id % 2 != 0:
            raise ValueError("endpoint query is for forward (even) edge ids")
        v = self._edges[edge_id].to
        u = self._edges[edge_id ^ 1].to
        return u, v

    @property
    def edge_count(self) -> int:
        """Total residual-edge entries (forward edges are the even half).

        The invariant monitor walks ``range(0, edge_count, 2)`` to audit
        capacity respect and per-node conservation of a solved flow.
        """
        return len(self._edges)

    def edge_capacity(self, edge_id: int) -> int:
        return self._edges[edge_id].cap

    # -- flow state -----------------------------------------------------------

    def flow_value(self, source: int) -> int:
        """Net flow currently leaving *source* (the value of the flow)."""
        out = 0
        for eid in self._adj[source]:
            if eid % 2 == 0:
                out += self._edges[eid].flow
            else:
                out -= self._edges[eid ^ 1].flow
        return out

    def snapshot_flow(self) -> list[int]:
        """The current per-edge flow, for :meth:`restore_flow`."""
        return [e.flow for e in self._edges]

    def restore_flow(self, snapshot: list[int]) -> None:
        """Restore a flow captured by :meth:`snapshot_flow`."""
        if len(snapshot) != len(self._edges):
            raise ValueError(
                f"snapshot has {len(snapshot)} entries for {len(self._edges)} edges"
            )
        for e, f in zip(self._edges, snapshot):
            e.flow = f

    # -- solving --------------------------------------------------------------

    def max_flow(
        self,
        source: int,
        sink: int,
        method: str = "edmonds-karp",
        limit: int | None = None,
    ) -> int:
        """Augment *source* → *sink* to a maximum flow; returns the flow **added**.

        On a zero-flow network this is the max-flow value.  On a network
        that already carries flow (a warm start after monotone capacity
        raises) only the residual is augmented and the *increment* is
        returned; add :meth:`flow_value` of the prior state for the total.

        ``limit`` stops augmentation once that much flow has been added.
        When the true max increment equals ``limit`` exactly (a saturation
        probe), the resulting flow is identical to the unlimited solve —
        only the final, failing path search is skipped.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        if method not in MAXFLOW_METHODS:
            raise ValueError(f"method must be one of {MAXFLOW_METHODS}, got {method!r}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        self.solve_calls += 1
        if limit == 0:
            return 0
        if method == "dinic":
            return self._dinic(source, sink, limit)
        return self._edmonds_karp(source, sink, limit)

    def _edmonds_karp(self, source: int, sink: int, limit: int | None = None) -> int:
        total = 0
        parent_edge = [-1] * self.n_nodes
        while True:
            # BFS for the shortest augmenting path in the residual graph.
            for i in range(self.n_nodes):
                parent_edge[i] = -1
            parent_edge[source] = -2
            queue: deque[int] = deque([source])
            found = False
            while queue and not found:
                u = queue.popleft()
                for eid in self._adj[u]:
                    e = self._edges[eid]
                    if e.cap - e.flow > 0 and parent_edge[e.to] == -1:
                        parent_edge[e.to] = eid
                        if e.to == sink:
                            found = True
                            break
                        queue.append(e.to)
            if not found:
                return total
            # Find bottleneck.
            bottleneck = INF
            v = sink
            while v != source:
                eid = parent_edge[v]
                e = self._edges[eid]
                bottleneck = min(bottleneck, e.cap - e.flow)
                v = self._edges[eid ^ 1].to
            # Augment.
            v = sink
            while v != source:
                eid = parent_edge[v]
                self._edges[eid].flow += bottleneck
                self._edges[eid ^ 1].flow -= bottleneck
                v = self._edges[eid ^ 1].to
            total += bottleneck
            if limit is not None and total >= limit:
                return total

    def _dinic(self, source: int, sink: int, limit: int | None = None) -> int:
        edges = self._edges
        adj = self._adj
        level = [0] * self.n_nodes
        it = [0] * self.n_nodes
        total = 0
        while True:
            # Phase: BFS the residual level graph.
            for i in range(self.n_nodes):
                level[i] = -1
            level[source] = 0
            queue: deque[int] = deque([source])
            while queue:
                u = queue.popleft()
                for eid in adj[u]:
                    e = edges[eid]
                    if e.cap - e.flow > 0 and level[e.to] == -1:
                        level[e.to] = level[u] + 1
                        queue.append(e.to)
            if level[sink] == -1:
                return total
            # Blocking flow: iterative DFS with per-node edge pointers.
            for i in range(self.n_nodes):
                it[i] = 0
            while True:
                pushed = self._dinic_dfs(source, sink, INF, level, it)
                if pushed == 0:
                    break
                total += pushed
                if limit is not None and total >= limit:
                    return total

    def _dinic_dfs(
        self, u: int, sink: int, limit: int, level: list[int], it: list[int]
    ) -> int:
        # Iterative DFS along level-increasing residual edges (no recursion:
        # node-split networks can be thousands of levels deep on chains).
        edges = self._edges
        adj = self._adj
        path: list[int] = []  # edge ids of the current partial path
        stack: list[int] = [u]
        while stack:
            node = stack[-1]
            if node == sink:
                # Bottleneck along path, then augment.
                bottleneck = limit
                for eid in path:
                    e = edges[eid]
                    bottleneck = min(bottleneck, e.cap - e.flow)
                for eid in path:
                    edges[eid].flow += bottleneck
                    edges[eid ^ 1].flow -= bottleneck
                return bottleneck
            advanced = False
            while it[node] < len(adj[node]):
                eid = adj[node][it[node]]
                e = edges[eid]
                if e.cap - e.flow > 0 and level[e.to] == level[node] + 1:
                    stack.append(e.to)
                    path.append(eid)
                    advanced = True
                    break
                it[node] += 1
            if not advanced:
                # Dead end: prune this node from the level graph and backtrack.
                level[node] = -1
                stack.pop()
                if path:
                    path.pop()
                    # Retry the parent's current edge choice next iteration.
                    parent = stack[-1]
                    it[parent] += 1
        return 0

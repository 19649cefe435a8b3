"""Channel assignment by graph coloring (paper Sec. V-G).

Adjacent clusters (whose radios can hear each other) must use different
radio channels.  The paper takes the cluster graph to be planar and uses
the classical algorithm that guarantees **at most 6 colors** there: peel
minimum-degree vertices onto a stack and color greedily on the way back.
The coloring is proper on any graph; only the 6-color bound needs
planarity (every planar graph has a vertex of degree <= 5).  A hearing
graph need not be planar — five heads that all hear each other make K5 —
so the number of colors is what the graph needs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["six_color_planar", "is_proper_coloring"]


def _validate(adj: np.ndarray) -> np.ndarray:
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    if adj.shape != (n, n):
        raise ValueError(f"adjacency must be square, got {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if np.diagonal(adj).any():
        raise ValueError("no self-loops allowed")
    return adj


def six_color_planar(adj: np.ndarray) -> np.ndarray:
    """Min-degree-peeling coloring: proper on any graph.

    Uses at most (degeneracy + 1) colors, so <= 6 whenever every subgraph
    has a vertex of degree <= 5, which planar graphs guarantee.
    """
    adj = _validate(adj)
    n = adj.shape[0]
    remaining = np.ones(n, dtype=bool)
    degree = adj.sum(axis=1).astype(np.int64)
    stack: list[int] = []
    work_adj = adj.copy()
    for _ in range(n):
        candidates = np.flatnonzero(remaining)
        v = int(candidates[np.argmin(degree[candidates])])
        stack.append(v)
        remaining[v] = False
        neighbors = np.flatnonzero(work_adj[v] & remaining)
        degree[neighbors] -= 1
        work_adj[v, :] = False
        work_adj[:, v] = False
    colors = np.full(n, -1, dtype=np.int64)
    for v in reversed(stack):
        used = {int(colors[u]) for u in np.flatnonzero(adj[v]) if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def is_proper_coloring(adj: np.ndarray, colors: np.ndarray) -> bool:
    """No edge joins two same-colored vertices, and all vertices colored."""
    adj = _validate(adj)
    colors = np.asarray(colors)
    if (colors < 0).any():
        return False
    ii, jj = np.nonzero(adj)
    return bool((colors[ii] != colors[jj]).all())

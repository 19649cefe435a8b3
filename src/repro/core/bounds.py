"""Lower bounds on the minimum polling makespan.

Used (a) to prune the exact branch-and-bound search and (b) as test oracles:
any valid schedule's makespan must dominate every bound here.

For a request set R with hop counts h_r over an oracle with group limit M:

* **head bound** — the head receives one packet per slot, and the first
  packet cannot arrive before slot h_min (its pipeline must run); so
  makespan >= (h_min - 1) + |R|.
* **pipeline bound** — some request must finish last; makespan >= max h_r.
* **node-load bound** — sensor v transmits load_v times, one per slot;
  additionally its last transmission is followed by the rest of that
  packet's pipeline: makespan >= load_v + (remaining hops after v of the
  last packet v could send) which we relax to load_v + dist_v - 1 where
  dist_v is v's distance (in hops) to the head along its path.
* **concurrency bound** — total transmissions / M.
"""

from __future__ import annotations

from math import ceil

from .requests import PollRequest

__all__ = ["makespan_lower_bound"]


def makespan_lower_bound(requests: list[PollRequest], max_group_size: int) -> int:
    """The max of all known lower bounds (0 for an empty request set)."""
    if not requests:
        return 0
    hops = [r.hop_count for r in requests]
    n = len(requests)
    head_bound = (min(hops) - 1) + n
    pipeline_bound = max(hops)
    concurrency_bound = ceil(sum(hops) / max_group_size)

    # node-load bound
    load: dict[int, int] = {}
    dist_to_head: dict[int, int] = {}
    for r in requests:
        path = r.path
        for k, node in enumerate(path[:-1]):
            load[node] = load.get(node, 0) + 1
            remaining = len(path) - 1 - k  # hops from node to head on this path
            dist_to_head[node] = min(dist_to_head.get(node, remaining), remaining)
    node_bound = 0
    for node, l in load.items():
        node_bound = max(node_bound, l + dist_to_head[node] - 1)

    return max(head_bound, pipeline_bound, concurrency_bound, node_bound)

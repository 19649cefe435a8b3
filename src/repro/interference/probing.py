"""Probing-based discovery of connectivity and interference (Sec. V-B, V-E).

The head does not assume any propagation law.  Instead it *tests*:

* **Connectivity** (Sec. V-B): let each sensor broadcast in turn, then poll
  every sensor for who it heard — O(n) transmission rounds.  Here that means
  querying the ground-truth channel for every single link in isolation.
* **Interference** (Sec. V-E): poll each group of at most *M* candidate
  transmissions simultaneously and check which receivers decoded — the
  result is an explicit group table the scheduler consults.

Testing *all* groups is exponential; the paper bounds work by (a) keeping M
small (2 or 3) and (b) probing only transmissions that actually appear in
the chosen relaying paths.  :func:`probe_cost` reproduces the Sec. IV count
("1320 groups instead of 85320" for 8 sectors of 10 vs one cluster of 80).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, Sequence

import numpy as np

from ..topology.cluster import HEAD
from .base import CompatibilityOracle, Link

__all__ = ["GroupTableOracle", "probe_connectivity", "probe_groups", "probe_cost"]


class GroupTableOracle(CompatibilityOracle):
    """Oracle backed by an explicit table of probed group outcomes.

    Groups never probed are treated as **incompatible** — the conservative
    choice: scheduling an untested combination risks collisions, while
    refusing one only costs time.
    """

    def __init__(self, table: dict[frozenset[Link], bool], max_group_size: int = 2):
        super().__init__(max_group_size=max_group_size)
        self._table = {frozenset(map(tuple, g)): bool(v) for g, v in table.items()}

    def _group_compatible(self, links: Sequence[Link]) -> bool:
        return self._table.get(frozenset(map(tuple, links)), False)


def probe_connectivity(
    truth: CompatibilityOracle, n_sensors: int
) -> tuple[np.ndarray, np.ndarray]:
    """Discover the hearing matrix by testing each link in isolation.

    Returns ``(hears, head_hears)`` in the :class:`~repro.topology.Cluster`
    convention: ``hears[i, j]`` — sensor *i* decodes sensor *j*;
    ``head_hears[j]`` — the head decodes sensor *j*.
    """
    hears = np.zeros((n_sensors, n_sensors), dtype=bool)
    head_hears = np.zeros(n_sensors, dtype=bool)
    for j in range(n_sensors):  # j broadcasts in turn
        for i in range(n_sensors):
            if i != j:
                hears[i, j] = truth.compatible([(j, i)])
        head_hears[j] = truth.compatible([(j, HEAD)])
    return hears, head_hears


def probe_groups(
    truth: CompatibilityOracle,
    links: Iterable[Link],
    max_group_size: int = 2,
) -> GroupTableOracle:
    """Probe all groups of 1..M candidate links against the true channel.

    *links* should be the transmissions that appear in the chosen relaying
    paths (probing everything else is wasted airtime).  Groups that repeat a
    node are skipped — they can never be scheduled together anyway.
    """
    links = sorted({tuple(l) for l in links})
    table: dict[frozenset[Link], bool] = {}
    for size in range(1, max_group_size + 1):
        for group in combinations(links, size):
            nodes: list[int] = []
            for s, r in group:
                nodes.append(s)
                nodes.append(r)
            if len(set(nodes)) != len(nodes):
                continue
            table[frozenset(group)] = truth.compatible(list(group))
    return GroupTableOracle(table, max_group_size=max_group_size)


def probe_cost(n_links: int, max_group_size: int) -> int:
    """Number of group probes needed for *n_links* candidate transmissions.

    Counts all groups of size 1..M (upper bound; node-sharing groups are
    skipped in practice).  This is the quantity Sec. IV argues sectoring
    slashes: probing 8 sectors of 10 links each is vastly cheaper than one
    cluster of 80 links.
    """
    if n_links < 0:
        raise ValueError(f"n_links must be non-negative, got {n_links}")
    if max_group_size < 1:
        raise ValueError(f"max_group_size must be >= 1, got {max_group_size}")
    return sum(comb(n_links, k) for k in range(1, max_group_size + 1))

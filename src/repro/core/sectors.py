"""Dividing a cluster into sectors (paper Sec. IV).

Sectors wake and transmit in turn, so a sensor is awake only for its own
sector's polling instead of the whole cluster's — at the price of possibly
higher relaying loads.  The partition quality target is the maximum *pseudo
power consumption rate* over sensors,

    r'(v) = c1 * load(v) + c2 * n_sector(v),

the paper's proxy for the true rate r = c1*load + c2*T_polling (polling time
is roughly proportional to sector size).  Optimal partitioning is NP-hard
(Thm. 5, via Partition), so Sec. IV-B gives a heuristic:

1. **Flow merging** — make the min-max-load routing DAG a tree
   (:func:`repro.routing.tree.merge_flow_to_tree`).
2. Treat each **first-level branch** (a head-adjacent sensor plus its
   dependents) as a candidate sector.
3. **Pair up branches** under three rules: (1) the branches are linked, so
   traffic can shift toward the less-loaded first-level sensor; (2) big
   branches pair with small ones; (3) while one first-level sensor sends to
   the head the other can simultaneously receive from its branch — the
   two-root pipeline that keeps polling time low.
4. **Rebalance** paired sectors by re-attaching subtrees across the pair
   when that lowers the heavier root's load.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interference.base import CompatibilityOracle
from ..routing.minmax import FlowSolution
from ..routing.paths import RelayingPath, RoutingPlan
from ..routing.tree import RelayTree, merge_flow_to_tree
from ..topology.cluster import HEAD, Cluster

__all__ = ["Sector", "SectorPartition", "partition_into_sectors", "PairingRules"]


@dataclass(frozen=True)
class PairingRules:
    """Toggles for the three Sec. IV-B pairing rules (ablation knobs)."""

    require_link: bool = True  # rule 1
    big_with_small: bool = True  # rule 2
    require_pipeline_compat: bool = True  # rule 3


@dataclass
class Sector:
    """One sector: a sub-cluster with its own relay tree."""

    sensors: list[int]
    roots: list[int]  # first-level sensors of this sector (1 or 2)
    parent: dict[int, int]  # relay tree within the sector

    @property
    def size(self) -> int:
        return len(self.sensors)

    def path_from(self, sensor: int) -> RelayingPath:
        path = [sensor]
        node = sensor
        while node != HEAD:
            node = self.parent[node]
            path.append(node)
        return tuple(path)

    def routing_plan(self, cluster: Cluster) -> RoutingPlan:
        paths = {
            s: self.path_from(s)
            for s in self.sensors
            if cluster.packets[s] > 0
        }
        return RoutingPlan(cluster=cluster, paths=paths)

    def loads(self, cluster: Cluster) -> dict[int, int]:
        out = {s: 0 for s in self.sensors}
        for s in self.sensors:
            pk = int(cluster.packets[s])
            if pk == 0:
                continue
            node = s
            while node != HEAD:
                out[node] += pk
                node = self.parent[node]
        return out


@dataclass
class SectorPartition:
    """A full partition of the cluster's relaying sensors into sectors."""

    cluster: Cluster
    sectors: list[Sector]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for sec in self.sectors:
            overlap = seen & set(sec.sensors)
            if overlap:
                raise ValueError(f"sensors {sorted(overlap)} appear in two sectors")
            seen |= set(sec.sensors)

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    def sector_of(self, sensor: int) -> int:
        for i, sec in enumerate(self.sectors):
            if sensor in sec.sensors:
                return i
        raise KeyError(f"sensor {sensor} is in no sector")

    def pseudo_rates(self, c1: float = 1.0, c2: float = 1.0) -> dict[int, float]:
        """r'(v) = c1*load(v) + c2*|sector(v)| for every sector member."""
        rates: dict[int, float] = {}
        for sec in self.sectors:
            loads = sec.loads(self.cluster)
            for s in sec.sensors:
                rates[s] = c1 * loads[s] + c2 * sec.size
        return rates

    def max_pseudo_rate(self, c1: float = 1.0, c2: float = 1.0) -> float:
        rates = self.pseudo_rates(c1, c2)
        return max(rates.values()) if rates else 0.0

    def describe(self) -> str:
        lines = []
        for i, sec in enumerate(self.sectors):
            roots = ",".join(f"s{r}" for r in sec.roots)
            members = ",".join(f"s{s}" for s in sorted(sec.sensors))
            lines.append(f"sector {i}: roots [{roots}] members [{members}]")
        return "\n".join(lines)


def partition_into_sectors(
    solution: FlowSolution,
    oracle: CompatibilityOracle | None = None,
    rules: PairingRules = PairingRules(),
) -> SectorPartition:
    """The Sec. IV-B heuristic: flow merge -> branches -> pair -> rebalance."""
    tree = merge_flow_to_tree(solution)
    return partition_tree_into_sectors(tree, oracle=oracle, rules=rules)


def partition_tree_into_sectors(
    tree: RelayTree,
    oracle: CompatibilityOracle | None = None,
    rules: PairingRules = PairingRules(),
) -> SectorPartition:
    """Pair first-level branches of an existing relay tree into sectors."""
    cluster = tree.cluster
    branches = tree.branches()  # root -> [root, *dependents]
    roots = sorted(branches)
    branch_weight = {
        r: int(sum(cluster.packets[s] for s in branches[r])) for r in roots
    }

    def linked(a: int, b: int) -> bool:
        """Rule 1: any hearing link between the two branches."""
        for x in branches[a]:
            for y in branches[b]:
                if cluster.hears[x, y] or cluster.hears[y, x]:
                    return True
        return False

    def pipeline_ok(a: int, b: int) -> bool:
        """Rule 3: root A->head can overlap a receive at root B, both ways."""
        if oracle is None:
            return True

        def one_way(sending_root: int, recv_root: int) -> bool:
            kids = [s for s in branches[recv_root] if tree.parent.get(s) == recv_root]
            if not kids:
                return True  # nothing to receive; pipelining trivially fine
            return any(
                oracle.compatible([(sending_root, HEAD), (k, recv_root)])
                for k in kids
            )

        return one_way(a, b) and one_way(b, a)

    # -- pairing ---------------------------------------------------------------
    order = sorted(roots, key=lambda r: (-len(branches[r]), r))
    if not rules.big_with_small:
        order = sorted(roots)
    unpaired = set(roots)
    pairs: list[tuple[int, int | None]] = []
    for r in order:
        if r not in unpaired:
            continue
        unpaired.discard(r)
        candidates = [
            q
            for q in sorted(unpaired, key=lambda q: (len(branches[q]), q))
            if (not rules.require_link or linked(r, q))
            and (not rules.require_pipeline_compat or pipeline_ok(r, q))
        ]
        if candidates:
            partner = candidates[0]
            unpaired.discard(partner)
            pairs.append((r, partner))
        else:
            pairs.append((r, None))

    # -- build sectors with rebalancing ------------------------------------------
    sectors: list[Sector] = []
    for r, partner in pairs:
        if partner is None:
            members = list(branches[r])
            parent = {s: tree.parent[s] for s in members}
            sectors.append(Sector(sensors=sorted(members), roots=[r], parent=parent))
            continue
        members = list(branches[r]) + list(branches[partner])
        parent = {s: tree.parent[s] for s in members}
        parent = _rebalance_pair(cluster, parent, r, partner, members)
        sectors.append(
            Sector(sensors=sorted(members), roots=sorted([r, partner]), parent=parent)
        )
    return SectorPartition(cluster=cluster, sectors=sectors)


def _rebalance_pair(
    cluster: Cluster,
    parent: dict[int, int],
    root_a: int,
    root_b: int,
    members: list[int],
) -> dict[int, int]:
    """Shift subtrees between the pair's branches to balance root loads.

    Root load = total packets routed through that root = total packets in
    its branch, so balancing means moving subtree weight from the heavy
    branch to the light one over an existing hearing link (rule 1's purpose).
    """
    member_set = set(members)

    def branch_root(s: int) -> int:
        node = s
        while parent[node] != HEAD:
            node = parent[node]
        return node

    def subtree_of(v: int) -> list[int]:
        out = [v]
        frontier = [v]
        while frontier:
            nxt = [s for s in members if parent.get(s) in frontier]
            out.extend(nxt)
            frontier = nxt
        return out

    for _ in range(len(members)):  # each iteration strictly improves; bounded
        weight = {root_a: 0, root_b: 0}
        for s in members:
            weight[branch_root(s)] += int(cluster.packets[s])
        heavy, light = (
            (root_a, root_b) if weight[root_a] >= weight[root_b] else (root_b, root_a)
        )
        gap = weight[heavy] - weight[light]
        if gap <= 1:
            break
        # Best move: a non-root subtree in the heavy branch, attachable to a
        # node of the light branch, with weight strictly under the gap.
        best: tuple[int, int, int] | None = None  # (subtree weight, v, new_parent)
        for v in members:
            if v in (root_a, root_b) or branch_root(v) != heavy:
                continue
            sub = subtree_of(v)
            w = int(sum(cluster.packets[s] for s in sub))
            if w == 0 or w >= gap:
                continue
            # New parent candidates: light-branch nodes (not in v's subtree)
            # that can hear v.
            attach = [
                u
                for u in members
                if u not in sub
                and branch_root(u) == light
                and cluster.hears[u, v]
            ]
            if not attach:
                continue
            cand = (w, v, min(attach))
            if best is None or cand > best:
                best = cand
        if best is None:
            break
        _, v, new_parent = best
        parent[v] = new_parent
    return parent

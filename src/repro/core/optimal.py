"""Exact minimum-makespan polling schedules (small instances only).

The MHP problem is NP-hard (Sec. III-C), so no polynomial algorithm exists
unless P=NP — but exhaustive search with memoization and lower-bound pruning
handles the instance sizes the hardness gadgets and the greedy-vs-optimal
ablation need (roughly ≤ 12 packets).  Both the paper's no-delay semantics
and the delayed variant are supported, letting tests *measure* Thm. 2's
claim that allowing delay does not shorten TSRF schedules.

State space: (undelivered-and-unstarted requests, in-flight pipeline
positions).  One slot advances every in-flight packet by exactly one hop
(no-delay) or any chosen subset (delayed), plus starts any subset of waiting
requests, subject to the slot's group being structurally sound, oracle-
compatible, and within the group limit M.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..interference.base import CompatibilityOracle
from ..routing.paths import RoutingPlan
from .requests import PollRequest, RequestPool
from .schedule import PollingSchedule
from .transmissions import Transmission, structurally_ok

__all__ = ["OptimalResult", "solve_optimal", "optimal_makespan"]

_INF = 10**9


@dataclass
class OptimalResult:
    makespan: int
    schedule: PollingSchedule
    states_explored: int


def solve_optimal(
    plan: RoutingPlan,
    oracle: CompatibilityOracle,
    allow_delay: bool = False,
    max_requests: int = 14,
    budget_slots: int | None = None,
) -> OptimalResult:
    """Exact optimum via memoized DFS with lower-bound pruning.

    Raises ``ValueError`` for instances larger than *max_requests* packets —
    the caller should be using the online greedy scheduler there.

    When ``budget_slots`` is given, the search runs as a *decision*
    procedure: a returned makespan < budget_slots is the exact optimum,
    while a value >= budget_slots only certifies that no schedule shorter
    than budget_slots exists (use :func:`feasible_within`).
    """
    pool = RequestPool(plan)
    requests = list(pool.requests)
    if len(requests) > max_requests:
        raise ValueError(
            f"{len(requests)} requests exceed the exact-solver cap of "
            f"{max_requests}; use OnlinePollingScheduler"
        )
    if not requests:
        return OptimalResult(makespan=0, schedule=PollingSchedule(), states_explored=0)

    by_id: dict[int, PollRequest] = {r.request_id: r for r in requests}
    m = oracle.max_group_size
    all_ids = frozenset(by_id)
    stats = {"states": 0}
    # memo: state -> (best extra slots, best action) where an action is
    # (starts tuple, advances tuple) chosen at this state's slot.
    memo: dict[tuple, tuple[int, tuple | None]] = {}

    def hop_link(rid: int, k: int) -> tuple[int, int]:
        path = by_id[rid].path
        return (path[k], path[k + 1])

    # Static "lonely link" analysis: a link with no compatible partner link
    # anywhere in the instance can only ever occupy a slot alone, so
    #   slots >= (#lonely transmissions) + ceil(#pairable transmissions / M).
    all_links = sorted(
        {
            (r.path[k], r.path[k + 1])
            for r in requests
            for k in range(r.hop_count)
        }
    )
    lonely_link: dict[tuple[int, int], bool] = {}
    if m >= 2:
        for a in all_links:
            has_partner = False
            for b in all_links:
                if a == b or len({a[0], a[1], b[0], b[1]}) < 4:
                    continue
                if oracle.compatible([a, b]):
                    has_partner = True
                    break
            lonely_link[a] = not has_partner
    else:
        lonely_link = {a: True for a in all_links}

    def group_valid(hops: list[tuple[int, int]]) -> bool:
        if len(hops) > m:
            return False
        txs = [
            Transmission(sender=s, receiver=r, request_id=i, hop_index=0)
            for i, (s, r) in enumerate(hops)
        ]
        if not structurally_ok(txs):
            return False
        return oracle.compatible(hops)

    def lb(remaining: frozenset[int], ongoing: frozenset[tuple[int, int]]) -> int:
        """Cheap lower bound on extra slots from this state."""
        if not remaining and not ongoing:
            return 0
        # Every ongoing pipeline still needs (h - k) slots; every remaining
        # request needs its full pipeline; the head still takes one arrival
        # per slot for every undelivered packet.
        n_undelivered = len(remaining) + len(ongoing)
        tail = 0
        for rid, k in ongoing:
            tail = max(tail, by_id[rid].hop_count - k)
        for rid in remaining:
            tail = max(tail, by_id[rid].hop_count)
        # Node-load bound: a node with L remaining transmissions needs >= L
        # slots, plus the lead-out of the last packet it forwards.
        node_load: dict[int, int] = {}
        node_dist: dict[int, int] = {}
        for rid, k0 in list(ongoing) + [(rid, 0) for rid in remaining]:
            path = by_id[rid].path
            h = by_id[rid].hop_count
            for k in range(k0, h):
                node = path[k]
                node_load[node] = node_load.get(node, 0) + 1
                rem = h - k  # hops from node to head on this path
                node_dist[node] = min(node_dist.get(node, rem), rem)
        node_bound = 0
        for node, load in node_load.items():
            node_bound = max(node_bound, load + node_dist[node] - 1)
        # Lonely-link bound (see the static analysis above).
        n_lonely = 0
        n_pairable = 0
        for rid, k0 in list(ongoing) + [(rid, 0) for rid in remaining]:
            for k in range(k0, by_id[rid].hop_count):
                if lonely_link[hop_link(rid, k)]:
                    n_lonely += 1
                else:
                    n_pairable += 1
        lonely_bound = n_lonely + -(-n_pairable // m)
        return max(n_undelivered, tail, node_bound, lonely_bound)

    def search(
        remaining: frozenset[int],
        ongoing: frozenset[tuple[int, int]],
        budget: int,
    ) -> int:
        """Minimum extra slots to finish, or >= budget if that's impossible
        within it (branch-and-bound window)."""
        if not remaining and not ongoing:
            return 0
        key = (remaining, ongoing)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]  # memo holds only exact values
        bound = lb(remaining, ongoing)
        if bound >= budget:
            return bound  # can't beat the budget; exact value not needed
        stats["states"] += 1
        best = _INF
        best_action: tuple | None = None

        forced = sorted(ongoing)
        # Advancing choices: all pipelines (no-delay) or any subset (delayed).
        if allow_delay:
            advance_choices = [
                tuple(c)
                for size in range(len(forced), -1, -1)
                for c in combinations(forced, size)
            ]
        else:
            advance_choices = [tuple(forced)]

        for advances in advance_choices:
            adv_hops = [hop_link(rid, k) for rid, k in advances]
            if len(adv_hops) > m:
                continue
            base_txs_ok = group_valid(adv_hops) if adv_hops else True
            if not base_txs_ok:
                continue
            # Enumerate start subsets, biggest first (greedy tends to be good,
            # tightening the budget early).
            waiting = sorted(remaining)
            max_new = m - len(adv_hops)
            start_subsets: list[tuple[int, ...]] = []
            for size in range(min(max_new, len(waiting)), -1, -1):
                start_subsets.extend(combinations(waiting, size))
            for starts in start_subsets:
                if not starts and not advances:
                    continue  # an all-idle slot never helps
                hops = adv_hops + [hop_link(rid, 0) for rid in starts]
                if len(hops) != len(adv_hops) and not group_valid(hops):
                    continue
                if not hops:
                    continue
                # Build successor state.
                nxt_ongoing: set[tuple[int, int]] = set()
                for rid, k in ongoing:
                    if (rid, k) in set(advances):
                        if k + 1 < by_id[rid].hop_count:
                            nxt_ongoing.add((rid, k + 1))
                    else:
                        nxt_ongoing.add((rid, k))
                for rid in starts:
                    if by_id[rid].hop_count > 1:
                        nxt_ongoing.add((rid, 1))
                sub_budget = min(budget, best) - 1
                sub = search(remaining - frozenset(starts), frozenset(nxt_ongoing), sub_budget)
                total = 1 + sub
                if total < best:
                    best = total
                    best_action = (starts, advances)
                    if best == bound:
                        break
            if best == bound:
                break
        # Branch-and-bound contract: a return value < budget is exact (no
        # subtree that could beat it was pruned); only those may be cached.
        if best < budget:
            memo[key] = (best, best_action)
        return best

    if budget_slots is None:
        budget_slots = sum(r.hop_count for r in requests) + len(requests) + 1
    best = search(all_ids, frozenset(), budget_slots)
    schedule = _reconstruct(by_id, memo, all_ids)
    return OptimalResult(makespan=best, schedule=schedule, states_explored=stats["states"])


def _reconstruct(
    by_id: dict[int, PollRequest],
    memo: dict[tuple, tuple[int, tuple | None]],
    all_ids: frozenset[int],
) -> PollingSchedule:
    """Replay the memoized best actions into an explicit schedule."""
    schedule = PollingSchedule()
    remaining = all_ids
    ongoing: frozenset[tuple[int, int]] = frozenset()
    t = 0
    while remaining or ongoing:
        entry = memo.get((remaining, ongoing))
        if entry is None or entry[1] is None:
            break  # pruned region; schedule reconstruction not possible
        starts, advances = entry[1]
        nxt_ongoing: set[tuple[int, int]] = set()
        adv_set = set(advances)
        for rid, k in ongoing:
            if (rid, k) in adv_set:
                req = by_id[rid]
                schedule.add(
                    t,
                    Transmission(
                        sender=req.path[k],
                        receiver=req.path[k + 1],
                        request_id=rid,
                        hop_index=k,
                    ),
                )
                if k + 1 < req.hop_count:
                    nxt_ongoing.add((rid, k + 1))
                else:
                    schedule.delivered[rid] = t
            else:
                nxt_ongoing.add((rid, k))
        for rid in starts:
            req = by_id[rid]
            schedule.add(
                t,
                Transmission(
                    sender=req.path[0],
                    receiver=req.path[1],
                    request_id=rid,
                    hop_index=0,
                ),
            )
            if req.hop_count > 1:
                nxt_ongoing.add((rid, 1))
            else:
                schedule.delivered[rid] = t
        remaining = remaining - frozenset(starts)
        ongoing = frozenset(nxt_ongoing)
        t += 1
        if t > 10_000:  # pragma: no cover - safety valve
            raise RuntimeError("schedule reconstruction runaway")
    return schedule


def optimal_makespan(
    plan: RoutingPlan,
    oracle: CompatibilityOracle,
    allow_delay: bool = False,
    max_requests: int = 14,
) -> int:
    """Just the optimum number of slots."""
    return solve_optimal(
        plan, oracle, allow_delay=allow_delay, max_requests=max_requests
    ).makespan


def feasible_within(
    plan: RoutingPlan,
    oracle: CompatibilityOracle,
    deadline: int,
    allow_delay: bool = False,
    max_requests: int = 24,
) -> bool:
    """Decision variant: does a schedule of at most *deadline* slots exist?

    Much faster than computing the exact optimum when the answer is no —
    the deadline becomes the branch-and-bound budget and the lower bounds
    prune aggressively.  This is exactly the TSRFP / X1MHP question
    ("can all packets reach the head by time T?").
    """
    result = solve_optimal(
        plan,
        oracle,
        allow_delay=allow_delay,
        max_requests=max_requests,
        budget_slots=deadline + 1,
    )
    return result.makespan <= deadline

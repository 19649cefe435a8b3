"""The per-request fill scan, kept as a test-side reference.

:class:`ReferenceScheduler` is :class:`OnlinePollingScheduler` with the
fill scan it had before each sensor's path was judged once per scan epoch,
and before the scan skipped the sensors a slot's group had already refused.
It judges every active request on its own, hop by hop, through a per-epoch
context of the slot's occupied nodes, whether the slot is full, and the
oracle's two-level verdict memo (group-links tuple -> candidate link ->
``compatible`` verdict), asking the oracle only about node-disjoint groups
below M.  It derives occupancy from ``schedule.slots`` and the active
requests from the pool (its ACTIVE requests in pool order), so it shares
none of the scan bookkeeping it is checked against: the per-sensor queues,
the ready bitmask and the per-group refusal records, which the base class
still updates, are never read by this scan.

``test_scheduler_reference.py`` requires both scans to produce identical
outputs and ``query_count``; ``benchmarks/test_bench_core_kernels.py``
requires the fast scan to beat this one by 3x.
"""

from __future__ import annotations

from repro.core import OnlinePollingScheduler, RequestState
from repro.core.transmissions import occupied_nodes


class ReferenceScheduler(OnlinePollingScheduler):
    def _fill_slot(self, t: int) -> None:
        oracle = self.oracle
        m = oracle.max_group_size
        slots = self.schedule.slots
        size = len(slots[t]) if t < len(slots) else 0
        if size >= m:
            return
        memo = oracle._seq_memo
        active = [r for r in self.pool.requests if r.state is RequestState.ACTIVE]
        # Per-offset context for the current scan epoch (between inserts the
        # schedule tail is frozen).
        ctx: dict[int, tuple] = {}
        for req in active:
            path = req.path
            fits = True
            for k in range(len(path) - 1):
                c = ctx.get(k)
                if c is None:
                    tk = t + k
                    group = slots[tk] if tk < len(slots) else None
                    if group:
                        occ = occupied_nodes(group)
                        gkey = tuple((tx.sender, tx.receiver) for tx in group)
                        full = len(group) >= m
                    else:
                        occ, gkey, full = None, (), False
                    c = ctx[k] = (occ, full, memo.setdefault(gkey, {}), group)
                occ, full, inner, group = c
                if full:
                    fits = False
                    break
                if occ is not None and (path[k] in occ or path[k + 1] in occ):
                    fits = False
                    break
                link = (path[k], path[k + 1])
                res = inner.get(link)
                if res is None:
                    links = [tx.link for tx in group] if group else []
                    links.append(link)
                    res = inner[link] = oracle.compatible(links)
                if not res:
                    fits = False
                    break
            if not fits:
                continue
            self._insert(req, t)
            ctx.clear()  # the insert grew the groups at t..t+hops
            size += 1
            if size >= m:
                break

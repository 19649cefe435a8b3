"""The on-line greedy polling algorithm (paper Table 1, Sec. III-D).

Before each time slot the head extends the schedule for *that slot only*:
it scans the active requests in a predetermined order and adds a request if,
started at this slot, its whole no-delay pipeline causes no contention with
the transmissions already reserved — where contention means either a node
being used twice in a slot or a slot group failing the compatibility oracle.
At most M transmissions share a slot, because the head only probed groups of
size ≤ M.

Packet loss: the head knows exactly which slot each packet should arrive in
(it fixed the start slot and knows the hop count), so a missing packet is
detected at its expected arrival slot and its request simply becomes active
again — new polls for old packets arrive while polling is still going on,
which is why the algorithm must be on-line.

Complexity: per slot the scan judges each sensor with an active request
at most once between two inserts, at O(h) verdict lookups for hop count
≤ h (one dict get per hop), and skips the sensor's other requests, which
share its path.  It also skips every sensor whose first hop the slot's
group has already refused in this phase (a verdict is a pure function of
the group and the link), so a slot judges only the sensors it might still
take — linear in input size for fixed M, as the paper notes (the
exponential term is in the *probing*, not the scheduling).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .. import obs as _obs
from .. import validate as _validate
from ..interference.base import CompatibilityOracle, Link
from ..routing.backup import BackupRoutes
from ..routing.paths import RelayingPath, RoutingPlan
from ..sim.rng import RngStreams
from .requests import PollRequest, RequestPool, RequestState
from .schedule import PollingSchedule
from .transmissions import Transmission

__all__ = [
    "LossModel",
    "BernoulliLoss",
    "FailoverEvent",
    "OnlinePollingScheduler",
    "OnlineResult",
]

_request_id = attrgetter("request_id")


@dataclass(frozen=True)
class FailoverEvent:
    """One in-cycle switch of a sensor onto a precomputed backup path.

    ``reason`` is ``"retry-exhausted"`` (a request burned its per-path retry
    budget) or ``"miss-streak"`` (the sensor reached K consecutive misses
    and would otherwise have been declared dead).
    """

    slot: int
    sensor: int
    old_path: RelayingPath
    new_path: RelayingPath
    reason: str


class LossModel:
    """Decides whether a given hop transmission fails."""

    def fails(self, request: PollRequest, hop_index: int, slot: int) -> bool:
        raise NotImplementedError


class BernoulliLoss(LossModel):
    """Independent per-hop loss with probability *p*, deterministic per seed.

    Every call draws one uniform from the model's own sequential stream, so
    the outcomes depend on the seed and on the order in which hops are
    asked about, not on (request, attempt, hop).  Re-polls of the same
    packet therefore draw fresh randomness, like retransmissions on a real
    channel.
    """

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = RngStreams(seed).get("loss")

    def fails(self, request: PollRequest, hop_index: int, slot: int) -> bool:
        if self.p == 0.0:
            return False
        return bool(self._rng.random() < self.p)


@dataclass
class OnlineResult:
    """Everything the experiments need from one polling run.

    ``failed_ids`` are requests abandoned after exhausting their retry budget
    (or belonging to a blacklisted sensor) — they were *not* delivered, and
    callers accounting throughput must treat them explicitly rather than
    assume every request in the pool reached the head.  ``blacklisted`` are
    sensors the head declared dead during the run (see
    ``dead_after_misses``).
    """

    schedule: PollingSchedule
    pool: RequestPool
    makespan: int
    total_attempts: int
    slots_elapsed: int
    failed_ids: frozenset[int] = frozenset()
    blacklisted: frozenset[int] = frozenset()
    failovers: tuple[FailoverEvent, ...] = ()

    @property
    def n_failed(self) -> int:
        """Requests that exhausted their retry budget and were abandoned."""
        return len(self.failed_ids)

    @property
    def delivered_count(self) -> int:
        return len(self.pool.requests) - self.n_failed

    @property
    def delivery_ratio(self) -> float:
        """Delivered / total requests (1.0 for a fault-free run)."""
        if not self.pool.requests:
            return 1.0
        return self.delivered_count / len(self.pool.requests)

    @property
    def retransmissions(self) -> int:
        return self.pool.retransmissions()


class OnlinePollingScheduler:
    """Runs Table 1 to completion over a routing plan.

    Parameters
    ----------
    plan:
        the duty cycle's routing (fixed path per sensor).
    oracle:
        compatibility oracle; its ``max_group_size`` is the paper's M and
        caps per-slot concurrency.
    loss:
        optional loss model for :meth:`run`; lost packets are re-polled.
        ``None`` (the default) loses nothing.  Externally stepped phases
        learn their losses from the head's arrivals instead.
    order:
        request scan order (see :class:`RequestPool`).
    max_slots:
        safety valve — raises if polling hasn't finished by then (prevents
        infinite loops under pathological loss).
    retry_limit:
        per-request retry budget.  ``None`` (the default) means **retry
        forever** — the paper's idealized head, which re-polls until every
        packet arrives (and therefore never terminates if a sensor is truly
        dead; ``max_slots`` is the only backstop).  With an integer limit, a
        request whose attempt count reaches the limit is abandoned and
        reported in :attr:`OnlineResult.failed_ids` rather than silently
        dropped.
    dead_after_misses:
        head-side dead-sensor detection.  ``None`` disables it (default;
        behavior is bit-for-bit the pre-fault-subsystem algorithm).  With an
        integer K, a sensor whose packets miss K *consecutive* expected
        arrival slots is declared dead: all its remaining requests are
        abandoned into ``failed_ids`` and the sensor joins ``blacklist`` so
        the MAC can exclude it from future cycles and repair routes around
        it.
    telemetry:
        optional :class:`repro.obs.Telemetry` collector.  ``None`` (the
        default) uses the ambient :func:`repro.obs.current` one, which is
        the disabled null collector unless a run activated telemetry; pass
        :data:`repro.obs.NULL_TELEMETRY` explicitly to silence a planning
        or estimation run that must not pollute the live trace.
    telemetry_parent:
        span to parent this phase's per-request spans under (the MAC
        passes its phase span so requests nest in the cycle tree).
    telemetry_clock:
        ``(clock_name, now_fn)`` for span timestamps.  Defaults to the
        scheduler's own slot cursor (clock ``"slot"``); the DES MAC passes
        ``("sim", lambda: sim.now)`` so request spans share the simulation
        timeline.
    backups:
        optional precomputed k-disjoint backup paths (``routing/backup.py``).
        ``None`` (the default) keeps the pre-survivability behavior bit for
        bit.  With backups, a sensor whose relay path shows evidence of a
        dead interior relay — retry exhaustion or a K-miss streak — is
        switched onto its next viable backup *in-cycle*: pending requests
        re-issue along the new path at the next slot with a fresh retry
        budget, instead of being written off until the boundary repair.  A
        backup is viable only if none of its interior relays is already a
        suspect or blacklisted; when the pool runs dry the original
        abandon/blacklist semantics apply unchanged.
    """

    def __init__(
        self,
        plan: RoutingPlan,
        oracle: CompatibilityOracle,
        loss: LossModel | None = None,
        order: str = "index",
        max_slots: int = 1_000_000,
        retry_limit: int | None = None,
        dead_after_misses: int | None = None,
        backups: BackupRoutes | None = None,
        telemetry: "_obs.Telemetry | None" = None,
        telemetry_parent: "_obs.Span | None" = None,
        telemetry_clock: "tuple[str, Callable[[], float]] | None" = None,
    ):
        self.plan = plan
        self.oracle = oracle
        self.loss = loss
        self.pool = RequestPool(plan, order=order)
        self.max_slots = max_slots
        self.retry_limit = retry_limit
        if dead_after_misses is not None and dead_after_misses < 1:
            raise ValueError(
                f"dead_after_misses must be >= 1, got {dead_after_misses}"
            )
        self.dead_after_misses = dead_after_misses
        self.failed: set[int] = set()
        self.blacklist: set[int] = set()
        self._miss_streak: dict[int, int] = {}
        self.schedule = PollingSchedule()
        # Per-request progress of the current attempt under the loss model:
        # request_id -> the farthest hop that actually carries the packet
        # (loss truncates it).  Empty without a loss model.
        self._attempt_ok_until: dict[int, int] = {}
        # Hot-path bookkeeping (semantics-neutral).  The fill scan's state:
        # a sensor's requests are contiguous in every pool order, so each
        # sensor has one scan rank; per rank, the sensor's ACTIVE requests
        # in scan order; the ranks with any ACTIVE request, as an int
        # bitmask; and per slot group seen in this phase, the ranks whose
        # first hop that group refused.  Also in-flight requests by
        # expected arrival slot, in scheduling order; each slot's group as
        # a links tuple, parallel to schedule.slots; each path's hop links;
        # and the count of not-yet-delivered requests.
        self._rank: dict[int, int] = {}
        self._queues: list[list[PollRequest]] = []
        for req in self.pool.requests:
            if req.sensor not in self._rank:
                self._rank[req.sensor] = len(self._queues)
                self._queues.append([])
            self._queues[-1].append(req)
        self._ready = (1 << len(self._queues)) - 1
        self._refused: dict[tuple[Link, ...], int] = {}
        self._in_flight: dict[int, list[PollRequest]] = {}
        self._slot_links: list[tuple[Link, ...]] = []
        self._hop_links: dict[RelayingPath, tuple[Link, ...]] = {}
        self._undelivered = len(self.pool.requests)
        # Verify every link is usable at all, otherwise polling can never end.
        for req in self.pool:
            for a, b in zip(req.path, req.path[1:]):
                if not oracle.single_link_ok((a, b)):
                    raise ValueError(
                        f"hop {a}->{b} of sensor {req.sensor}'s path never "
                        "decodes even alone; routing must avoid it"
                    )
        # In-cycle failover state.  Backups whose hops cannot decode even
        # alone are silently unusable (unlike the plan they are optional),
        # so they are filtered here once instead of re-checked per switch.
        self.failover_events: list[FailoverEvent] = []
        self._slot_cursor = 0
        # Telemetry: one span per poll request, opened lazily at its first
        # scheduled attempt.  _tel_enabled folds the whole wiring into one
        # boolean check on the hot paths.
        self._tel = telemetry if telemetry is not None else _obs.current()
        self._tel_enabled = self._tel.enabled
        self._tel_parent = telemetry_parent
        if telemetry_clock is None:
            self._tel_clock_name = "slot"
            self._tel_now = lambda: float(self._slot_cursor)
        else:
            self._tel_clock_name, self._tel_now = telemetry_clock
        self._req_spans: dict[int, _obs.Span] = {}
        self._suspect_nodes: set[int] = set()
        self._sensor_path: dict[int, RelayingPath] = {}
        self._retry_base: dict[int, int] = {}
        self._backup_pool: dict[int, list[RelayingPath]] = {}
        if backups is not None:
            for sensor, paths in backups.backups.items():
                usable = [
                    p
                    for p in paths
                    if all(
                        oracle.single_link_ok((a, b))
                        for a, b in zip(p, p[1:])
                    )
                ]
                if usable:
                    self._backup_pool[sensor] = usable

    # -- the algorithm ----------------------------------------------------------

    def run(self) -> OnlineResult:
        """Execute slot by slot until every request is deleted."""
        t = 0
        ok_until = self._attempt_ok_until
        while self._undelivered > 0:
            if t >= self.max_slots:
                raise RuntimeError(
                    f"polling did not finish within {self.max_slots} slots"
                )
            # An attempt arrives if the loss model let it cross every hop;
            # one the model never judged (no model) arrives.
            delivered_now = {
                req.request_id
                for req in self._in_flight.get(t - 1, ())
                if ok_until.get(req.request_id, req.hop_count) >= req.hop_count
            }
            self._step(t, delivered_now)
            t += 1
        self.validate_invariants()
        return OnlineResult(
            schedule=self.schedule,
            pool=self.pool,
            makespan=self.schedule.makespan(),
            total_attempts=self.pool.total_attempts(),
            slots_elapsed=t,
            failed_ids=frozenset(self.failed),
            blacklisted=frozenset(self.blacklist),
            failovers=tuple(self.failover_events),
        )

    def validate_invariants(self, sim_time: float | None = None, hint: str = "") -> int:
        """Run the Sec. III-D invariant checks on the finished phase.

        Packet conservation (every request delivered or explicitly written
        off) plus the per-slot group invariants (≤ M, node-disjoint,
        oracle-compatible) on the schedule actually produced.  Called
        automatically at the end of :meth:`run`; the DES MAC calls it after
        each externally-stepped phase.  Respects the process-wide
        :mod:`repro.validate` monitor mode.
        """
        found = _validate.check_polling_outcome(self, sim_time=sim_time, hint=hint)
        found += _validate.check_schedule(
            self.schedule, self.oracle, sim_time=sim_time, hint=hint
        )
        return found

    # -- external (simulator-driven) stepping -------------------------------------
    #
    # The DES polling MAC drives the same algorithm slot by slot, with real
    # PHY deliveries instead of the internal loss model: before slot t it
    # reports which request ids arrived during slot t-1, and receives the
    # slot-t transmission group to announce in the poll message.

    def external_step(self, t: int, delivered_now: set[int]) -> list[Transmission]:
        """Advance to slot *t* given the head's observed arrivals at t-1."""
        self._step(t, delivered_now)
        return self.schedule.group_at(t)

    def _step(self, t: int, delivered_now: set[int]) -> None:
        """Resolve the requests due at slot t-1 — those in *delivered_now*
        arrived, the rest are lost — then fill slot *t*."""
        self._slot_cursor = t
        due = self._in_flight.pop(t - 1, [])
        # Deliveries first: same-slot proof of life must reset a sensor's
        # miss streak before a sibling request's miss can condemn it.
        for req in due:
            if req.request_id in delivered_now:
                req.mark_delivered()
                self.schedule.delivered[req.request_id] = t - 1
                self._undelivered -= 1
                self._miss_streak.pop(req.sensor, None)
                if self._tel_enabled:
                    self._tel_delivered(req)
        for req in due:
            if req.state is RequestState.IDLE:
                self._lose(req)
        self._fill_slot(t)

    # -- telemetry ----------------------------------------------------------------
    #
    # One span per poll request, so a failed delivery traces end to end:
    # attempt events per scheduled re-poll, retry/failover events, then the
    # span's close, whose status, reason and attempts say how the request
    # ended.  All callers guard on self._tel_enabled, keeping the disabled
    # path branch-cheap.

    def _tel_span(self, req: PollRequest) -> "_obs.Span":
        span = self._req_spans.get(req.request_id)
        if span is None:
            span = self._tel.begin(
                "request",
                f"poll:s{req.sensor}",
                self._tel_now(),
                clock=self._tel_clock_name,
                parent=self._tel_parent,
                sensor=req.sensor,
                request_id=req.request_id,
                path=list(req.path),
            )
            self._req_spans[req.request_id] = span
        return span

    def _tel_delivered(self, req: PollRequest) -> None:
        self._tel.finish(
            self._req_spans.get(req.request_id),
            self._tel_now(),
            status="ok",
            attempts=req.attempts,
        )
        self._tel.metrics.counter("polling.delivered").inc()

    def _tel_abandoned(self, req: PollRequest, reason: str) -> None:
        self._tel.finish(
            self._req_spans.get(req.request_id),
            self._tel_now(),
            status="failed",
            reason=reason,
            attempts=req.attempts,
        )
        self._tel.metrics.counter("polling.abandoned").inc()

    def _tel_failover(self, req: PollRequest, reason: str) -> None:
        """Annotate *req*'s span: its path just changed to a backup."""
        self._tel.add_event(
            self._req_spans.get(req.request_id),
            self._tel_now(),
            "failover",
            reason=reason,
            new_path=list(req.path),
        )

    def _lose(self, req: PollRequest) -> None:
        """Re-activate a lost request, or give it up past the retry limit.

        A real head cannot re-poll forever (a dead sensor would stall the
        whole duty cycle); past the limit the packet is abandoned and
        reported in ``failed`` / :attr:`OnlineResult.failed_ids`.  With
        backup routes, exhaustion on one path first tries switching the
        sensor onto a backup with a fresh budget; only when no viable
        backup remains does the original write-off apply.
        """
        base = self._retry_base.get(req.request_id, 0)
        if (
            self.retry_limit is not None
            and req.attempts - base >= self.retry_limit
        ):
            if self._backup_pool.get(req.sensor):
                # The whole interior of the exhausted path is now suspect —
                # the head cannot tell which relay swallowed the packets.
                self._suspect_nodes.update(req.path[1:-1])
                req.mark_lost()
                if self._try_failover(
                    req.sensor, req.path, "retry-exhausted"
                ):
                    self._reinsert_active(req)
                    return
                # No viable backup: fall through to the original write-off.
            req.state = RequestState.DELETED
            self.failed.add(req.request_id)
            self._undelivered -= 1
            if self._tel_enabled:
                self._tel_abandoned(req, "retry-exhausted")
        else:
            req.mark_lost()
            current = self._sensor_path.get(req.sensor)
            if current is not None and req.path != current:
                # The sensor switched paths while this request was in
                # flight; re-issue along the new path with its fresh budget.
                req.path = current
                self._retry_base[req.request_id] = req.attempts
                if self._tel_enabled:
                    reason = next(
                        ev.reason
                        for ev in reversed(self.failover_events)
                        if ev.sensor == req.sensor
                    )
                    self._tel_failover(req, reason)
            self._reinsert_active(req)
            if self._tel_enabled:
                self._tel.add_event(
                    self._req_spans.get(req.request_id),
                    self._tel_now(),
                    "retry",
                    attempts=req.attempts,
                )
                self._tel.metrics.counter("polling.retries").inc()
        self._note_miss(req.sensor, req.path)

    def _note_miss(
        self, sensor: int, path: RelayingPath | None = None
    ) -> None:
        """Count a consecutive missed arrival; declare the sensor dead at K.

        With backup routes, the K-th consecutive miss first tries an
        in-cycle path switch — only a sensor with no viable backup left is
        declared dead and blacklisted.
        """
        if self.dead_after_misses is None:
            return
        streak = self._miss_streak.get(sensor, 0) + 1
        self._miss_streak[sensor] = streak
        if streak >= self.dead_after_misses and sensor not in self.blacklist:
            if self._backup_pool.get(sensor):
                current = self._sensor_path.get(
                    sensor, path if path is not None else ()
                )
                self._suspect_nodes.update(current[1:-1])
                if self._try_failover(sensor, current, "miss-streak"):
                    return
            self._declare_dead(sensor)

    def _try_failover(
        self, sensor: int, old_path: RelayingPath, reason: str
    ) -> bool:
        """Switch *sensor* onto its next viable backup path, if any.

        Viability excludes backups routing through suspect or blacklisted
        relays.  On success every not-yet-scheduled request of the sensor is
        re-stamped with the new path and a fresh retry budget, the miss
        streak resets (the new path has shown no evidence either way), and
        the switch is logged as a :class:`FailoverEvent` at the next slot a
        re-poll can go out.  The re-stamp reads the pool, not the sensor's
        queue: on retry exhaustion the request being lost is ACTIVE but not
        back in its queue yet.  The sensor leaves every group's refusal
        record, since those refused the old path's first hop.  In-flight
        (IDLE) requests keep their old path —
        their transmissions are already reserved in the schedule — until
        :meth:`_lose` re-issues one on the new path.  A request's span gets
        its ``failover`` event when its own path changes.
        """
        pool = self._backup_pool.get(sensor)
        if not pool:
            return False
        avoid = self._suspect_nodes | self.blacklist
        new_path: RelayingPath | None = None
        while pool:
            candidate = pool.pop(0)
            if not (set(candidate[1:-1]) & avoid):
                new_path = candidate
                break
        if not pool:
            self._backup_pool.pop(sensor, None)
        if new_path is None:
            return False
        self._sensor_path[sensor] = new_path
        restamped = [
            req
            for req in self.pool.requests
            if req.sensor == sensor and req.state is RequestState.ACTIVE
        ]
        for req in restamped:
            req.path = new_path
            self._retry_base[req.request_id] = req.attempts
        keep = ~(1 << self._rank[sensor])
        refused = self._refused
        for group in refused:
            refused[group] &= keep
        self._miss_streak.pop(sensor, None)
        self.failover_events.append(
            FailoverEvent(
                slot=self._slot_cursor,
                sensor=sensor,
                old_path=old_path,
                new_path=new_path,
                reason=reason,
            )
        )
        if self._tel_enabled:
            now = self._tel_now()
            self._tel.timeline_event(
                now,
                "failover",
                sensor=sensor,
                reason=reason,
                slot=self._slot_cursor,
                old_path=list(old_path),
                new_path=list(new_path),
            )
            for req in restamped:
                self._tel_failover(req, reason)
            self._tel.metrics.counter("polling.failovers").inc()
        return True

    def _declare_dead(self, sensor: int) -> None:
        """Blacklist *sensor* and abandon all its undelivered requests.

        The head has watched K consecutive expected-arrival slots pass in
        silence: continuing to re-poll would stall the duty cycle, so the
        sensor's remaining packets are written off and the sensor reported
        for route repair and exclusion from future cycles.
        """
        self.blacklist.add(sensor)
        if self._tel_enabled:
            phase = self._tel_parent
            self._tel.timeline_event(
                self._tel_now(),
                "blacklist",
                sensor=sensor,
                cluster=None if phase is None else phase.attrs.get("cluster"),
                slot=self._slot_cursor,
                misses=self._miss_streak.get(sensor),
            )
            self._tel.metrics.counter("polling.blacklisted").inc()
        for req in self.pool.requests:
            if req.sensor == sensor and req.state is not RequestState.DELETED:
                req.state = RequestState.DELETED
                self.failed.add(req.request_id)
                self._undelivered -= 1
                if self._tel_enabled:
                    self._tel_abandoned(req, "blacklist")
        rank = self._rank[sensor]
        self._queues[rank].clear()
        self._ready &= ~(1 << rank)
        for due in self._in_flight.values():
            due[:] = [r for r in due if r.sensor != sensor]

    def _reinsert_active(self, req: PollRequest) -> None:
        """Put a reactivated request back into its sensor's queue, in scan
        order (every pool order sorts a sensor's requests by id), and mark
        the sensor ready."""
        rank = self._rank[req.sensor]
        bisect.insort(self._queues[rank], req, key=_request_id)
        self._ready |= 1 << rank

    @property
    def all_done(self) -> bool:
        return self._undelivered == 0

    def _fill_slot(self, t: int) -> None:
        """Greedy insertion for slot *t* (the paper's inner while loop).

        A request fits if every hop *k* of its path may join slot t+k's
        group.  All ACTIVE requests of a sensor carry its current path, so
        only the head of each sensor's queue is judged.  Between two
        inserts (a scan epoch) the groups are frozen, and the candidates
        are the ready sensors whose first hop slot t's group has not
        refused before in this phase, walked from the lowest rank up; a
        first-hop refusal joins that group's record.  An insert grows the
        group, so the candidates above the inserted rank are re-derived
        from the grown group's own record: a sensor the smaller group
        refused is asked again, which keeps the oracle's queries (and
        ``query_count``) those of the per-request scan.  Each hop is one
        get in the oracle's per-group verdict dict (see :meth:`_may_join`).
        """
        m = self.oracle.max_group_size
        group = self._group(t)
        memo = self.oracle._seq_memo
        hop_links = self._hop_links
        queues = self._queues
        above = -1  # the ranks the slot may still take
        while len(group) < m:
            # One scan epoch; verdicts[k] is slot t+k's verdict dict.
            first = memo.setdefault(group, {})
            verdicts = [first]
            refused = self._refused.get(group, 0)
            cand = self._ready & ~refused & above
            ok = False
            while cand and not ok:
                low = cand & -cand
                cand ^= low
                queue = queues[low.bit_length() - 1]
                path = queue[0].path
                links = hop_links.get(path) or self._links_of(path)
                link = links[0]
                ok = first.get(link)
                if ok is None:
                    ok = first[link] = self._may_join(t, link)
                if not ok:
                    refused |= low
                    continue
                for k in range(1, len(links)):
                    if k == len(verdicts):
                        verdicts.append(memo.setdefault(self._group(t + k), {}))
                    inner = verdicts[k]
                    link = links[k]
                    ok = inner.get(link)
                    if ok is None:
                        ok = inner[link] = self._may_join(t + k, link)
                    if not ok:
                        break
            self._refused[group] = refused
            if not ok:
                return
            req = queue.pop(0)
            if not queue:
                self._ready ^= low
            self._insert(req, t)
            group = self._group(t)  # the insert grew the groups at t..t+hops
            above = -(low << 1)

    def _links_of(self, path: RelayingPath) -> tuple[Link, ...]:
        """The hop links of *path*, built once per path."""
        links = self._hop_links.get(path)
        if links is None:
            links = self._hop_links[path] = tuple(zip(path, path[1:]))
        return links

    def _group(self, s: int) -> tuple[Link, ...]:
        """Slot *s*'s group as an ordered links tuple."""
        return self._slot_links[s] if s < len(self._slot_links) else ()

    def _may_join(self, s: int, link: Link) -> bool:
        """May *link* join slot *s*'s group?  Not if the group already
        holds M transmissions (the oracle knows no larger groups); otherwise
        the oracle decides, and it rejects a node the group already uses
        without counting a query."""
        group = self._group(s)
        return len(group) < self.oracle.max_group_size and self.oracle.compatible(
            group + (link,)
        )

    def _insert(self, req: PollRequest, t: int) -> None:
        req.mark_scheduled(t)
        self._in_flight.setdefault(req.arrival_slot(), []).append(req)
        if self._tel_enabled:
            self._tel.add_event(
                self._tel_span(req),
                self._tel_now(),
                "attempt",
                slot=t,
                attempt=req.attempts,
            )
        links = self._links_of(req.path)
        slot_links = self._slot_links
        missing = t + len(links) - len(slot_links)
        if missing > 0:
            slot_links.extend([()] * missing)
        for k, link in enumerate(links):
            self.schedule.add(
                t + k,
                Transmission(
                    sender=link[0],
                    receiver=link[1],
                    request_id=req.request_id,
                    hop_index=k,
                ),
            )
            slot_links[t + k] += (link,)
        if self.loss is not None:
            # Draw loss per hop now so progress is fixed for this attempt:
            # the packet travels up to its first lost hop.
            ok_until = 0
            for k in range(len(links)):
                if self.loss.fails(req, k, t + k):
                    break
                ok_until = k + 1
            self._attempt_ok_until[req.request_id] = ok_until

    # -- convenience --------------------------------------------------------------

    @classmethod
    def poll(
        cls,
        plan: RoutingPlan,
        oracle: CompatibilityOracle,
        loss: LossModel | None = None,
        order: str = "index",
    ) -> OnlineResult:
        """One-shot: build a scheduler and run it."""
        return cls(plan, oracle, loss=loss, order=order).run()

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

Complexity: per slot the scan is O(R · h · M) oracle/occupancy work for R
requests of hop count ≤ h — linear in input size for fixed M, as the paper
notes (the exponential term is in the *probing*, not the scheduling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import obs as _obs
from .. import validate as _validate
from ..interference.base import CompatibilityOracle
from ..routing.backup import BackupRoutes
from ..routing.paths import RelayingPath, RoutingPlan
from ..sim.rng import RngStreams
from ..topology.cluster import HEAD
from .requests import PollRequest, RequestPool, RequestState
from .schedule import PollingSchedule
from .transmissions import Transmission

__all__ = [
    "LossModel",
    "BernoulliLoss",
    "NoLoss",
    "FailoverEvent",
    "OnlinePollingScheduler",
    "OnlineResult",
]


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


class NoLoss(LossModel):
    """The ideal channel: every hop succeeds."""

    def fails(self, request: PollRequest, hop_index: int, slot: int) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Independent per-hop loss with probability *p*, deterministic per seed.

    The decision depends on (request, attempt, hop) so re-polls of the same
    packet redraw fresh randomness, exactly like retransmissions on a real
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
        return self.total_attempts - len(self.pool.requests)


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
        optional loss model; lost packets are re-polled.
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
        self.loss = loss or NoLoss()
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
        # Per-request progress of the current attempt: request_id -> the
        # farthest hop that actually carries the packet (loss truncates it).
        self._attempt_ok_until: dict[int, int] = {}
        # Hot-path bookkeeping (semantics-neutral): the scan list of active
        # requests in pool order, per-slot occupied-node sets, and the count
        # of not-yet-delivered requests.
        self._scan_order = {r.request_id: i for i, r in enumerate(self.pool.requests)}
        self._active_list: list[PollRequest] = list(self.pool.requests)
        self._in_flight: list[PollRequest] = []
        self._occupied: dict[int, set[int]] = {}
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
        while self._undelivered > 0:
            if t >= self.max_slots:
                raise RuntimeError(
                    f"polling did not finish within {self.max_slots} slots"
                )
            self._process_arrivals(t)
            self._fill_slot(t)
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
        self._slot_cursor = t
        due = self._take_arrivals(t - 1)
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
        self._fill_slot(t, draw_loss=False)
        return self.schedule.group_at(t)

    # -- telemetry ----------------------------------------------------------------
    #
    # One span per poll request, so a failed delivery traces end to end:
    # attempt events per scheduled re-poll, retry/failover events, then a
    # terminal delivered/abandoned event closing the span.  All callers
    # guard on self._tel_enabled, keeping the disabled path branch-cheap.

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
        span = self._req_spans.get(req.request_id)
        now = self._tel_now()
        self._tel.add_event(span, now, "delivered", attempts=req.attempts)
        if span is not None:
            self._tel.finish(span, now, status="ok", attempts=req.attempts)
        self._tel.metrics.counter("polling.delivered").inc()

    def _tel_abandoned(self, req: PollRequest, reason: str) -> None:
        span = self._req_spans.get(req.request_id)
        now = self._tel_now()
        self._tel.add_event(
            span, now, "abandoned", reason=reason, attempts=req.attempts
        )
        if span is not None:
            self._tel.finish(
                span, now, status="failed", reason=reason, attempts=req.attempts
            )
        self._tel.metrics.counter("polling.abandoned").inc()

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
        re-poll can go out.  In-flight (IDLE) requests keep their old path —
        their transmissions are already reserved in the schedule.
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
        for req in self.pool.requests:
            if req.sensor == sensor and req.state is RequestState.ACTIVE:
                req.path = new_path
                self._retry_base[req.request_id] = req.attempts
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
            for req in self.pool.requests:
                if req.sensor == sensor:
                    self._tel.add_event(
                        self._req_spans.get(req.request_id),
                        now,
                        "failover",
                        reason=reason,
                        new_path=list(new_path),
                    )
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
            self._tel.timeline_event(
                self._tel_now(),
                "blacklist",
                sensor=sensor,
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
        self._active_list = [r for r in self._active_list if r.sensor != sensor]
        self._in_flight = [r for r in self._in_flight if r.sensor != sensor]

    def _reinsert_active(self, req: PollRequest) -> None:
        """Put a reactivated request back into the scan list, keeping the
        predetermined order (insertion by scan index)."""
        import bisect

        keys = [self._scan_order[r.request_id] for r in self._active_list]
        pos = bisect.bisect_left(keys, self._scan_order[req.request_id])
        self._active_list.insert(pos, req)

    @property
    def all_done(self) -> bool:
        return self._undelivered == 0

    def _process_arrivals(self, t: int) -> None:
        """Resolve requests whose expected arrival slot has just completed."""
        self._slot_cursor = t
        due = self._take_arrivals(t - 1)
        for req in due:
            if self._attempt_ok_until[req.request_id] >= req.hop_count:
                req.mark_delivered()
                self.schedule.delivered[req.request_id] = t - 1
                self._undelivered -= 1
                self._miss_streak.pop(req.sensor, None)
                if self._tel_enabled:
                    self._tel_delivered(req)
        for req in due:
            if req.state is RequestState.IDLE:
                self._lose(req)

    def _take_arrivals(self, slot: int) -> list["PollRequest"]:
        """Pop in-flight requests whose expected arrival slot is *slot*."""
        due = [r for r in self._in_flight if r.arrival_slot() == slot]
        if due:
            due_ids = set(id(r) for r in due)
            self._in_flight = [r for r in self._in_flight if id(r) not in due_ids]
        return due

    def _fill_slot(self, t: int, draw_loss: bool = True) -> None:
        """Greedy insertion for slot *t* (the paper's inner while loop).

        The fit test is inlined with every attribute lookup hoisted out of
        the scan: this loop probes tens of requests per slot across tens of
        thousands of slots per sweep and dominates scheduler time.
        """
        oracle = self.oracle
        m = oracle.max_group_size
        slots = self.schedule.slots
        # Only this slot's hop-0 inserts grow group_at(t) during the scan,
        # so the size is tracked locally instead of re-queried per request.
        size = len(slots[t]) if t < len(slots) else 0
        if size >= m:
            return
        occupied = self._occupied
        memo = oracle._seq_memo
        inserted: list[PollRequest] | None = None
        # Per-offset context for the current scan epoch (between inserts the
        # schedule tail is frozen): the slot's occupied-node set, whether it
        # is already full, its group, and the memo's per-group verdict dict
        # mapping a candidate link to "may it join this group".  Rebuilding
        # this per *request* is what used to dominate sweep time.
        ctx: dict[int, tuple] = {}
        ctx_get = ctx.get
        for req in self._active_list:
            path = req.path
            fits = True
            for k in range(len(path) - 1):
                c = ctx_get(k)
                if c is None:
                    tk = t + k
                    occ = occupied.get(tk)
                    group = slots[tk] if tk < len(slots) else None
                    if group:
                        gkey = tuple((tx.sender, tx.receiver) for tx in group)
                        full = len(group) >= m
                    else:
                        gkey = ()
                        full = False
                    inner = memo.get(gkey)
                    if inner is None:
                        inner = memo[gkey] = {}
                    c = (occ, full, inner.get, inner, group)
                    ctx[k] = c
                occ, full, inner_get, inner, group = c
                if full:
                    fits = False
                    break
                # Pass 1: cheap structural checks (O(1) occupied-node sets).
                if occ is not None and (path[k] in occ or path[k + 1] in occ):
                    fits = False
                    break
                # Pass 2: radio compatibility of the extended group.  The
                # same few group shapes recur every slot of every phase, so
                # probes go through the oracle's group->link memo; only
                # genuinely new shapes pay for a real group query.
                link = (path[k], path[k + 1])
                res = inner_get(link)
                if res is None:
                    if group:
                        links = [tx.link for tx in group]
                        links.append(link)
                        res = oracle.compatible(links)
                    else:
                        res = oracle.compatible([link])
                    inner[link] = res
                if not res:
                    fits = False
                    break
            if not fits:
                continue
            self._insert(req, t, draw_loss=draw_loss)
            ctx.clear()  # the insert grew groups/occupied at t..t+hops
            if inserted is None:
                inserted = []
            inserted.append(req)
            size += 1
            if size >= m:
                break
        if inserted:
            taken = set(id(r) for r in inserted)
            self._active_list = [r for r in self._active_list if id(r) not in taken]

    def _insert(self, req: PollRequest, t: int, draw_loss: bool = True) -> None:
        req.mark_scheduled(t)
        self._in_flight.append(req)
        if self._tel_enabled:
            self._tel.add_event(
                self._tel_span(req),
                self._tel_now(),
                "attempt",
                slot=t,
                attempt=req.attempts,
            )
        # Draw loss lazily per hop now so progress is fixed for this attempt.
        ok_until = 0
        lost = False
        for k in range(req.hop_count):
            self.schedule.add(
                t + k,
                Transmission(
                    sender=req.path[k],
                    receiver=req.path[k + 1],
                    request_id=req.request_id,
                    hop_index=k,
                ),
            )
            occ = self._occupied.setdefault(t + k, set())
            occ.add(req.path[k])
            occ.add(req.path[k + 1])
            if draw_loss and not lost:
                if self.loss.fails(req, k, t + k):
                    lost = True
                else:
                    ok_until = k + 1
        if draw_loss:
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

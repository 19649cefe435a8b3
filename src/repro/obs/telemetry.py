"""Causal spans and the telemetry context (DESIGN.md §10).

One :class:`Telemetry` instance collects everything observable about a run:

* a tree of :class:`Span`\\ s with stable ids — ``run → cycle → phase``
  scopes plus per-poll-request spans, so a dropped packet or a failover
  re-issue traces back to the poll request that caused it;
* a :class:`~repro.obs.metrics.MetricsRegistry` of typed instruments,
  snapshotted per duty cycle;
* a flat *timeline* of events that belong to the run rather than to any
  one span (invariant violations, blacklist declarations, head crashes,
  and one ``replan`` event per routing plan a head put in force).

:meth:`Telemetry.summary` reduces a finished run to a flat JSON digest —
one value per metric plus the violation count — which the sweep runner
stores once per trial, in the campaign feed and the sweep cache.

Spans carry a ``clock`` domain: ``"sim"`` spans are stamped in simulation
seconds, ``"wall"`` spans in :func:`time.perf_counter` seconds (solver and
kernel profiling), and ``"slot"`` spans in abstract slot indices (the
schedule-level algorithms outside the DES).  Exporters keep the domains on
separate tracks; ids are unique across all of them.

Activation is scoped, not global: ``with obs.use(Telemetry()) as tel: ...``
makes ``tel`` the ambient collector that every wired-in layer discovers via
:func:`current`.  Outside any scope, :data:`NULL_TELEMETRY` — a permanently
disabled collector — is returned, so emission sites reduce to one attribute
check and the disabled path stays bit-for-bit identical to a build without
telemetry at all.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from .metrics import MetricsRegistry

__all__ = [
    "Span",
    "SpanEvent",
    "Telemetry",
    "NULL_TELEMETRY",
    "current",
    "use",
]

CLOCKS = ("sim", "wall", "slot")


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (attempt, retry, failover)."""

    time: float
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def dump(self) -> dict[str, Any]:
        return {"time": self.time, "name": self.name, "attrs": self.attrs}


@dataclass
class Span:
    """One timed unit of work with a stable id and an optional parent."""

    span_id: int
    parent_id: int | None
    kind: str  # "run" | "cycle" | "phase" | "request" | "profile"
    name: str
    clock: str  # one of CLOCKS
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed span time (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def dump(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "clock": self.clock,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "events": [e.dump() for e in self.events],
        }


class Telemetry:
    """Collector for one run.

    All emission methods are no-ops when ``enabled`` is False; hot call
    sites cache the ambient telemetry once and guard on ``enabled`` so the
    disabled path costs a single branch.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self.timeline: list[SpanEvent] = []
        self.cycle_snapshots: list[dict[str, Any]] = []
        self.extras: dict[str, Any] = {}
        self.root: Span | None = None
        self._next_id = 1
        self._wall_stack: list[Span] = []

    # -- spans -------------------------------------------------------------------

    def begin(
        self,
        kind: str,
        name: str,
        time: float,
        clock: str = "sim",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span | None:
        """Open a span; returns None (and records nothing) when disabled."""
        if not self.enabled:
            return None
        if clock not in CLOCKS:
            raise ValueError(f"clock must be one of {CLOCKS}, got {clock!r}")
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            kind=kind,
            name=name,
            clock=clock,
            start=time,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span | None, time: float, **attrs: Any) -> None:
        """Close an open span (tolerates ``None`` from a disabled begin)."""
        if span is None or not self.enabled:
            return
        span.end = time
        if attrs:
            span.attrs.update(attrs)

    def add_event(
        self, span: Span | None, time: float, name: str, **attrs: Any
    ) -> None:
        """Attach a point event to *span* (no-op for ``None``)."""
        if span is None or not self.enabled:
            return
        span.events.append(SpanEvent(time=time, name=name, attrs=attrs))

    def timeline_event(self, time: float, name: str, **attrs: Any) -> None:
        """A run-level event not owned by any span (violations, crashes)."""
        if not self.enabled:
            return
        self.timeline.append(SpanEvent(time=time, name=name, attrs=attrs))

    # -- wall-clock profiling scope (synchronous, so a stack is safe) -------------

    def push_wall(self, span: Span | None) -> None:
        if span is not None:
            self._wall_stack.append(span)

    def pop_wall(self, span: Span | None) -> None:
        if span is not None and self._wall_stack and self._wall_stack[-1] is span:
            self._wall_stack.pop()

    @property
    def wall_parent(self) -> Span | None:
        return self._wall_stack[-1] if self._wall_stack else None

    # -- per-cycle metric snapshots ------------------------------------------------

    def snapshot_cycle(self, **meta: Any) -> None:
        """Capture the registry state plus caller metadata for one cycle.

        Registry values are *cumulative*; consumers diff consecutive
        snapshots for per-cycle deltas (the exporters keep them verbatim).
        """
        if not self.enabled:
            return
        self.cycle_snapshots.append({**meta, "metrics": self.metrics.snapshot()})

    # -- violations (wired via repro.validate listener) ---------------------------

    def on_violation(self, violation) -> None:
        """Listener for :class:`repro.validate.InvariantMonitor`."""
        if not self.enabled:
            return
        self.timeline.append(
            SpanEvent(
                time=violation.sim_time if violation.sim_time is not None else -1.0,
                name="invariant-violation",
                attrs={
                    "invariant": violation.invariant,
                    "message": violation.message,
                    "nodes": list(violation.nodes),
                    "hint": violation.hint,
                },
            )
        )

    # -- digests -------------------------------------------------------------------

    def span_aggregate(self) -> dict[str, dict[str, float]]:
        """``{"clock:kind": {"count", "dur"}}`` totals over collected spans."""
        agg: dict[str, dict[str, float]] = {}
        for span in self.spans:
            key = f"{span.clock}:{span.kind}"
            slot = agg.setdefault(key, {"count": 0, "dur": 0.0})
            slot["count"] += 1
            slot["dur"] += span.duration
        return agg

    def summary(self) -> dict[str, Any]:
        """A flat, JSON-compatible digest of the run.

        ``metrics`` maps each instrument to one value: a counter or gauge
        its value, a histogram its mean (``None`` while empty).
        ``violations`` counts the invariant violations on the timeline.
        """
        metrics: dict[str, Any] = {}
        for name, payload in self.metrics.snapshot().items():
            if payload["type"] == "histogram":
                count = payload["count"]
                metrics[name] = payload["sum"] / count if count else None
            else:
                metrics[name] = payload["value"]
        return {
            "metrics": metrics,
            "violations": sum(
                1 for e in self.timeline if e.name == "invariant-violation"
            ),
        }

    # -- convenience ---------------------------------------------------------------

    def spans_of(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def find_span(self, span_id: int) -> Span | None:
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None


NULL_TELEMETRY = Telemetry(enabled=False)
"""The permanently disabled collector returned outside any ``use`` scope."""

_STACK: list[Telemetry] = []


def current() -> Telemetry:
    """The ambient telemetry, or :data:`NULL_TELEMETRY` when none is active."""
    return _STACK[-1] if _STACK else NULL_TELEMETRY


@contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Activate *telemetry* for the dynamic extent of the block.

    Also subscribes it to the process-wide invariant monitor so every
    :class:`~repro.validate.InvariantViolation` recorded inside the block
    lands on the telemetry timeline (strict mode still raises; the event is
    captured first).
    """
    from .. import validate as _validate

    _STACK.append(telemetry)
    listener_attached = False
    if telemetry.enabled:
        _validate.MONITOR.listeners.append(telemetry.on_violation)
        listener_attached = True
    try:
        yield telemetry
    finally:
        _STACK.pop()
        if listener_attached:
            try:
                _validate.MONITOR.listeners.remove(telemetry.on_violation)
            except ValueError:  # pragma: no cover - double-detached externally
                pass

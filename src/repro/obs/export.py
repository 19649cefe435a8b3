"""Trace exporters: JSONL (the repo's native format) and Chrome trace.

JSONL layout — one self-describing object per line, loadable by
:func:`load_jsonl` and summarized by ``python -m repro.obs.inspect``:

* ``{"type": "meta", ...}`` — run extras (per-radio energy, config hints)
  plus the final metrics snapshot;
* ``{"type": "span", ...}`` — one per span, events inlined;
* ``{"type": "timeline", ...}`` — one per run-level event (violations,
  blacklist declarations, head crashes);
* ``{"type": "cycle", ...}`` — one per duty-cycle metrics snapshot.

The Chrome-trace export targets ``chrome://tracing`` / Perfetto: spans
become complete (``"ph": "X"``) events, span events become instants, and
each clock domain gets its own pseudo-process so simulation time (µs = sim
seconds × 1e6) never interleaves with wall-clock profiling.  Request spans
are fanned out one thread per sensor, which renders the per-sensor retry /
failover history as parallel tracks under the cycle/phase timeline.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .telemetry import Span, SpanEvent, Telemetry

__all__ = [
    "export_jsonl",
    "export_chrome_trace",
    "load_jsonl",
]

_CLOCK_PIDS = {"sim": 1, "wall": 2, "slot": 3}
_CLOCK_LABELS = {
    "sim": "simulation time",
    "wall": "wall-clock profiling",
    "slot": "slot-indexed scheduling",
}


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / tuples / sets into JSON-compatible values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and getattr(value, "ndim", 0) == 0:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def export_jsonl(telemetry: Telemetry, path: str | os.PathLike) -> Path:
    """Write the full telemetry (spans, timeline, cycles, meta) as JSONL."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        meta = {
            "type": "meta",
            "extras": _jsonable(telemetry.extras),
            "metrics": telemetry.metrics.snapshot(),
            "span_aggregate": telemetry.span_aggregate(),
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for span in telemetry.spans:
            fh.write(json.dumps({"type": "span", **_jsonable(span.dump())}) + "\n")
        for event in telemetry.timeline:
            fh.write(
                json.dumps({"type": "timeline", **_jsonable(event.dump())}) + "\n"
            )
        for snap in telemetry.cycle_snapshots:
            fh.write(json.dumps({"type": "cycle", **_jsonable(snap)}) + "\n")
    return path


def load_jsonl(path: str | os.PathLike) -> dict[str, Any]:
    """Load a JSONL trace back into ``{"meta", "spans", "timeline", "cycles"}``.

    Unparsable lines (a tail truncated by a crash) are skipped, mirroring
    the campaign feed's tolerance.
    """
    meta: dict[str, Any] = {}
    spans: list[dict[str, Any]] = []
    timeline: list[dict[str, Any]] = []
    cycles: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            rtype = record.get("type")
            if rtype == "meta":
                meta = record
            elif rtype == "span":
                spans.append(record)
            elif rtype == "timeline":
                timeline.append(record)
            elif rtype == "cycle":
                cycles.append(record)
    return {"meta": meta, "spans": spans, "timeline": timeline, "cycles": cycles}


def _ts(span_clock: str, t: float) -> float:
    """Chrome trace timestamps are microseconds; slot indices scale by 1e3
    so one slot renders as a legible 1 ms block."""
    return t * (1e3 if span_clock == "slot" else 1e6)


def _tid(span: Span) -> int:
    if span.kind == "request":
        sensor = span.attrs.get("sensor")
        return 100 + int(sensor) if sensor is not None else 99
    return 0


def export_chrome_trace(telemetry: Telemetry, path: str | os.PathLike) -> Path:
    """Write a ``chrome://tracing`` / Perfetto compatible trace file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events: list[dict[str, Any]] = []
    for clock, pid in _CLOCK_PIDS.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": _CLOCK_LABELS[clock]},
            }
        )
    seen_request_tids: set[tuple[int, int]] = set()
    for span in telemetry.spans:
        pid = _CLOCK_PIDS[span.clock]
        tid = _tid(span)
        if span.kind == "request" and (pid, tid) not in seen_request_tids:
            seen_request_tids.add((pid, tid))
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"sensor {span.attrs.get('sensor', '?')}"},
                }
            )
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": _ts(span.clock, span.start),
                "dur": max(0.0, _ts(span.clock, end) - _ts(span.clock, span.start)),
                "pid": pid,
                "tid": tid,
                "args": _jsonable(
                    {"span_id": span.span_id, "parent_id": span.parent_id, **span.attrs}
                ),
            }
        )
        for ev in span.events:
            events.append(
                {
                    "name": ev.name,
                    "cat": span.kind,
                    "ph": "i",
                    "s": "t",
                    "ts": _ts(span.clock, ev.time),
                    "pid": pid,
                    "tid": tid,
                    "args": _jsonable({"span_id": span.span_id, **ev.attrs}),
                }
            )
    for ev in telemetry.timeline:
        events.append(
            {
                "name": ev.name,
                "cat": "timeline",
                "ph": "i",
                "s": "g",  # global scope: draw across the whole track
                "ts": _ts("sim", max(0.0, ev.time)),
                "pid": _CLOCK_PIDS["sim"],
                "tid": 0,
                "args": _jsonable(ev.attrs),
            }
        )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path

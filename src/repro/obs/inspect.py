"""Trace-file summarizer: ``python -m repro.obs.inspect trace.jsonl``.

Reads a JSONL trace written by :func:`repro.obs.export_jsonl` and prints

* per-phase simulation time (where the duty cycle's seconds went),
* wall-clock profiling totals (where the *solver's* seconds went),
* the top individual spans by duration,
* per-radio energy totals (reconciling with :mod:`repro.metrics.energy`),
* the violation / failover / blacklist / re-plan timeline, and
* the causal chain of every failed poll request (``--failures``),

so a regression or a TTR outlier can be diagnosed from the trace file
alone, without rerunning the simulation under print-debugging.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from typing import Any

from .export import load_jsonl

__all__ = ["summarize", "failure_chains", "engine_field_health", "main"]

_TIMELINE_EVENTS = (
    "invariant-violation",
    "failover",
    "blacklist",
    "head-crash",
    "head-declared-dead",
    "head-adoption",
    "replan",
)


def _fmt_time(clock: str, seconds: float) -> str:
    if clock == "slot":
        return f"{seconds:.0f} slots"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    return f"{seconds * 1e3:.3f} ms"


def _span_duration(span: dict[str, Any]) -> float:
    end = span.get("end")
    return 0.0 if end is None else end - span["start"]


def per_phase_time(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """``{phase name: {"count", "dur"}}`` over sim-clock phase spans."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "dur": 0.0})
    for span in spans:
        if span["kind"] == "phase" and span["clock"] == "sim":
            slot = out[span["name"]]
            slot["count"] += 1
            slot["dur"] += _span_duration(span)
    return dict(out)


def profile_time(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """``{profile name: {"count", "dur"}}`` over wall-clock spans."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "dur": 0.0})
    for span in spans:
        if span["clock"] == "wall":
            slot = out[span["name"]]
            slot["count"] += 1
            slot["dur"] += _span_duration(span)
    return dict(out)


def failure_chains(trace: dict[str, Any]) -> list[dict[str, Any]]:
    """The end-to-end story of every failed poll request.

    Each chain links the request span (with its attempt/retry/failover
    events, then one ``abandoned`` entry read off the span's close) to the
    blacklist event that wrote its sensor off and the ``replan`` events
    whose ``excluded`` or ``unreachable`` holds the sensor — the plans
    that routed around the death, the acceptance path of DESIGN.md §10.
    Sensor ids are local to a cluster, so only events of the request's
    cluster (read off its enclosing phase span) are linked.
    """
    spans = trace["spans"]
    phase_cluster = {
        span["span_id"]: span["attrs"].get("cluster")
        for span in spans
        if span["kind"] == "phase"
    }
    blacklist_events = [e for e in trace["timeline"] if e["name"] == "blacklist"]
    replans = [e for e in trace["timeline"] if e["name"] == "replan"]
    chains = []
    for span in spans:
        attrs = span["attrs"]
        if span["kind"] != "request" or attrs.get("status") != "failed":
            continue
        sensor = attrs.get("sensor")
        cluster = phase_cluster.get(span["parent_id"])
        linked_blacklists = [
            e
            for e in blacklist_events
            if e["attrs"].get("sensor") == sensor
            and e["attrs"].get("cluster") == cluster
        ]
        linked_replans = [
            e
            for e in replans
            if e["attrs"]["cluster"] == cluster
            and (sensor in e["attrs"]["excluded"] or sensor in e["attrs"]["unreachable"])
        ]
        chains.append(
            {
                "request": span,
                "sensor": sensor,
                "events": [
                    *span.get("events", ()),
                    {
                        "time": span["end"],
                        "name": "abandoned",
                        "attrs": {
                            "reason": attrs.get("reason"),
                            "attempts": attrs.get("attempts"),
                        },
                    },
                ],
                "blacklist": linked_blacklists,
                "repairs": linked_replans,
            }
        )
    return chains


def engine_field_health(metrics: dict[str, Any]) -> list[str]:
    """Engine-mix and field-staleness lines for the summary.

    The ``mac.vector_slots``/``mac.scalar_slots`` counters give the
    per-slot mix on single- and multi-cluster runs alike, and the
    ``field.assignment_staleness`` gauge/trajectory says how stale the
    Voronoi forming was.
    """
    lines: list[str] = []
    for name in ("mac.vector_slots", "mac.scalar_slots"):
        payload = metrics.get(name)
        if payload is not None:
            lines.append(f"{name.split('.', 1)[1]}: {payload.get('value')}")
    gauge = metrics.get("field.assignment_staleness")
    if gauge is not None and gauge.get("value") is not None:
        lines.append(f"field assignment staleness (final): {gauge['value']:.4f}")
    traj = metrics.get("field.assignment_staleness.trajectory")
    if traj is not None and traj.get("count"):
        mean = traj["sum"] / traj["count"]
        lines.append(
            f"field staleness trajectory: mean {mean:.4f}, "
            f"max {traj['max']:.4f} over {traj['count']} epochs"
        )
    return lines


def summarize(
    trace: dict[str, Any], top: int = 10, show_failures: bool = True
) -> str:
    """Render the human-readable report for one loaded trace."""
    lines: list[str] = []
    spans = trace["spans"]
    meta = trace.get("meta", {})
    extras = meta.get("extras", {})

    lines.append(f"trace: {len(spans)} spans, {len(trace['timeline'])} timeline "
                 f"events, {len(trace['cycles'])} cycle snapshots")

    phases = per_phase_time(spans)
    if phases:
        lines.append("\nper-phase simulation time:")
        total = sum(v["dur"] for v in phases.values())
        for name, slot in sorted(phases.items(), key=lambda kv: -kv[1]["dur"]):
            share = slot["dur"] / total if total > 0 else 0.0
            lines.append(
                f"  {name:<12} {slot['dur']:>10.4f} s  "
                f"x{int(slot['count']):<5} {share:6.1%}"
            )
        lines.append(f"  {'total':<12} {total:>10.4f} s")

    profiles = profile_time(spans)
    if profiles:
        lines.append("\nwall-clock profiling:")
        for name, slot in sorted(profiles.items(), key=lambda kv: -kv[1]["dur"]):
            lines.append(
                f"  {name:<28} {slot['dur'] * 1e3:>10.3f} ms  x{int(slot['count'])}"
            )

    health = engine_field_health(meta.get("metrics", {}))
    if health:
        lines.append("\nengine / field health:")
        lines.extend(f"  {line}" for line in health)

    ranked = sorted(spans, key=_span_duration, reverse=True)[:top]
    if ranked:
        lines.append(f"\ntop {len(ranked)} spans by duration:")
        for span in ranked:
            lines.append(
                f"  #{span['span_id']:<5} {span['kind']:<8} {span['name']:<20} "
                f"{_fmt_time(span['clock'], _span_duration(span))}"
            )

    energy = extras.get("energy_per_radio_j")
    if energy is not None:
        lines.append("\nper-radio energy (J):")
        for i, joules in enumerate(energy):
            label = "head" if i == len(energy) - 1 else f"s{i}"
            lines.append(f"  {label:<6} {joules:.9f}")
        lines.append(f"  total  {sum(energy):.9f}")

    notable = [e for e in trace["timeline"] if e["name"] in _TIMELINE_EVENTS]
    if notable:
        lines.append("\nviolation / failover / re-plan timeline:")
        rows = [(e["time"], e["name"], e.get("attrs", {})) for e in notable]
        for t, name, attrs in sorted(rows, key=lambda r: r[0]):
            brief = ", ".join(
                f"{k}={v}" for k, v in attrs.items()
                if v is not None
                and k in ("invariant", "sensor", "cluster", "cause", "reason",
                          "excluded", "unreachable", "head", "adopter",
                          "orphans", "nodes")
            )
            lines.append(f"  t={t:>10.4f}  {name:<20} {brief}")

    if show_failures:
        chains = failure_chains(trace)
        if chains:
            lines.append(f"\nfailed poll requests ({len(chains)}):")
            for chain in chains:
                req = chain["request"]
                lines.append(
                    f"  request #{req['attrs'].get('request_id')} "
                    f"(sensor {chain['sensor']}, span #{req['span_id']}):"
                )
                for ev in chain["events"]:
                    lines.append(f"    t={ev['time']:>10.4f}  {ev['name']}")
                for ev in chain["blacklist"]:
                    lines.append(
                        f"    t={ev['time']:>10.4f}  blacklist declared"
                    )
                for ev in chain["repairs"]:
                    lines.append(
                        f"    t={ev['time']:>10.4f}  {ev['attrs']['cause']} re-plan "
                        f"(excluded={ev['attrs']['excluded']})"
                    )
        else:
            lines.append("\nno failed poll requests.")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.inspect", description=__doc__
    )
    parser.add_argument("trace", help="JSONL trace file from export_jsonl")
    parser.add_argument("--top", type=int, default=10,
                        help="how many top spans to list (default 10)")
    parser.add_argument("--no-failures", action="store_true",
                        help="skip the failed-request causal chains")
    args = parser.parse_args(argv)
    trace = load_jsonl(args.trace)
    print(summarize(trace, top=args.top, show_failures=not args.no_failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Campaign observability: streaming sweep telemetry and forensics.

A long ``run_sweep`` used to be a black box — per-trial summaries were
aggregated only after the last trial returned, so nothing could watch a
running campaign, flag sick trials, or tell a real perf regression from
host drift.  This module is the campaign's flight recorder plus the tools
that read it:

* :class:`CampaignFeed` — the **writer**.  ``run_sweep(...,
  campaign_dir=...)`` appends one fsynced JSONL record per trial event
  (``launched`` / ``retry`` / ``timeout`` / ``cached`` / ``completed`` /
  ``failed``) plus ``sweep-start`` / ``sweep-end`` brackets, all written
  by the sweep's parent process.  The feed is also the sweep's resume
  journal: ``completed`` and ``cached`` records carry the trial's
  ``result`` and raw ``telemetry`` summary, and a failure the runner
  settled is marked ``settled``.  Every writer owns its **own shard
  file** named by host fingerprint and pid, so concurrent sweeps —
  including runners on different machines sharing a network filesystem —
  never interleave a line.  Appends are single ``write`` calls flushed
  and fsynced: a SIGKILL can tear at most the final line of one shard,
  and :func:`load_feed` skips torn lines on read.
* :func:`load_feed` / :func:`campaign_status` — the **monitor**.  Loading
  merges every shard under one (or several) campaign directories and the
  status rollup reduces the event stream to per-trial terminal states:
  trial counts (done / cached / failed / retrying / running / pending),
  completion throughput, an ETA from the observed trial-wall
  distribution, and per-experiment health.  A trial that appears in
  several runs (completed before a SIGKILL, replayed as ``cached`` by the
  resumed run) is counted **once**, by its latest terminal event.
* :func:`detect_anomalies` / :func:`triage_failures` — the **forensics**.
  Robust-MAD outlier detection over trial wall time, peak RSS, and the
  obs-metric snapshot each completed record carries (energy, delivery),
  plus structured triage of :class:`~repro.experiments.runner.TrialFailure`
  records and strict-invariant violations — every finding ships a repro
  hint (experiment + kwargs + cache key) that replays the one sick trial.

The CLI renders all of it live::

    python -m repro.obs.campaign results/campaign            # one-shot
    python -m repro.obs.campaign results/campaign --watch    # live refresh
    python -m repro.obs.campaign results/campaign --report   # forensics
    python -m repro.obs.campaign hostA/ hostB/ --report      # merged shards

``campaign_dir=None`` (the default) constructs nothing and emits nothing:
like the rest of :mod:`repro.obs`, the disabled path is bit-for-bit
identical to a build without this module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "host_fingerprint",
    "CampaignFeed",
    "load_feed",
    "CampaignStatus",
    "campaign_status",
    "reduce_trials",
    "mad_outliers",
    "detect_anomalies",
    "triage_failures",
    "summary_fields",
    "repro_hint",
    "render_status",
    "render_report",
    "main",
]

TERMINAL_EVENTS = ("completed", "cached", "failed")

# Metrics scanned for outliers by default: the trial-wall distribution, the
# worker's memory high-water mark, and the energy / delivery scalars the
# polling stack records into the obs registry.
DEFAULT_ANOMALY_METRICS = (
    "wall_s",
    "peak_rss_kb",
    "mac.energy_j",
    "mac.packets_delivered",
    "polling.delivered",
)


# --------------------------------------------------------------------------- host


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_fingerprint() -> dict[str, Any]:
    """Identity of the machine a measurement was taken on.

    Two measurements are perf-comparable only when the fields that move
    medians agree — CPU model, core count, architecture, and the
    Python/numpy that executed the hot loops.  ``id`` digests exactly those
    fields (not the hostname: two containers on one box are the same host
    as far as a benchmark median is concerned).
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = None
    info: dict[str, Any] = {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    blob = json.dumps(info, sort_keys=True, separators=(",", ":"))
    info["id"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    return info


# --------------------------------------------------------------------------- feed


def summary_fields(summary: dict[str, Any] | None) -> dict[str, Any]:
    """Flatten one per-trial telemetry summary into feed-record fields.

    Counters and gauges keep their value; histograms reduce to their mean —
    enough for the MAD detector without shipping distributions per trial.
    """
    if not summary:
        return {}
    flat: dict[str, Any] = {}
    for name, payload in summary.get("metrics", {}).items():
        if payload.get("type") == "histogram":
            count = payload.get("count") or 0
            flat[name] = payload.get("sum", 0.0) / count if count else None
        else:
            flat[name] = payload.get("value")
    return {
        "wall_s": summary.get("wall_s"),
        "peak_rss_kb": summary.get("peak_rss_kb"),
        "violations": summary.get("violations", 0),
        "metrics": flat,
    }


class CampaignFeed:
    """Append-only, crash-tolerant event log for one campaign directory.

    Each instance appends to a shard private to this (host, pid), so any
    number of concurrent writers — sweeps in other processes, runners on
    other machines pointed at the same directory — stay torn-tail
    isolated from each other.  Records carry ``(t, seq, run, host, pid)``
    so a merged read can order them and attribute every event.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.host = host_fingerprint()["id"]
        self.pid = os.getpid()
        self.run_id = f"{int(time.time() * 1e3):012x}-{self.pid}"
        self.path = self.root / f"feed-{self.host}-{self.pid}.jsonl"
        self._seq = 0

    def emit(self, event: str, key: str | None, **fields: Any) -> None:
        """Append one event record: a single fsynced write, never a rewrite."""
        record = {
            "t": time.time(),
            "seq": self._seq,
            "run": self.run_id,
            "host": self.host,
            "pid": self.pid,
            "event": event,
            "key": key,
            **fields,
        }
        self._seq += 1
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def emit_trial(
        self,
        event: str,
        key: str | None,
        experiment: str,
        kwargs: dict[str, Any],
        summary: dict[str, Any] | None = None,
        **fields: Any,
    ) -> None:
        """A trial-scoped event, with the obs summary flattened in."""
        self.emit(
            event,
            key,
            experiment=experiment,
            kwargs=kwargs,
            **summary_fields(summary),
            **fields,
        )


def load_feed(
    roots: str | os.PathLike | Iterable[str | os.PathLike],
) -> list[dict[str, Any]]:
    """Merge every ``feed-*.jsonl`` shard under one or more campaign dirs.

    Tolerates torn tails (a line cut short by SIGKILL mid-write), blank
    lines, and junk records, so a killed sweep's feed still resumes.
    Records come back sorted by ``(t, seq)`` — a stable global order good
    enough for progress accounting (writers stamp wall clocks that may skew
    across hosts; per-key reduction tolerates that).
    """
    if isinstance(roots, (str, os.PathLike)):
        roots = [roots]
    records: list[dict[str, Any]] = []
    for root in roots:
        for shard in sorted(Path(root).glob("feed-*.jsonl")):
            try:
                text = shard.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # the torn tail of a killed writer
                if isinstance(record, dict) and isinstance(record.get("event"), str):
                    records.append(record)
    records.sort(key=lambda r: (r.get("t", 0.0), r.get("seq", 0)))
    return records


# ------------------------------------------------------------------------- status


@dataclass
class CampaignStatus:
    """Reduction of a campaign feed to its current truth."""

    declared: int = 0  # trials the latest sweep-start announced
    completed: int = 0  # fresh terminal completions
    cached: int = 0  # served from cache / journal resume
    failed: int = 0  # settled TrialFailures
    running: int = 0  # launched, no terminal record yet
    retrying: int = 0  # last event is a scheduled retry
    pending: int = 0  # declared but never launched
    retries: int = 0  # retry events (total, not distinct trials)
    timeouts: int = 0  # deadline kills
    violations: int = 0  # strict-invariant violations across trials
    throughput_per_s: float | None = None
    eta_s: float | None = None
    wall_p50_s: float | None = None
    wall_p90_s: float | None = None
    first_t: float | None = None
    last_t: float | None = None
    sweep_ended: bool = False
    by_experiment: dict[str, dict[str, Any]] = field(default_factory=dict)
    trials: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def done(self) -> int:
        """Trials with a successful terminal state (fresh or replayed)."""
        return self.completed + self.cached

    @property
    def terminal(self) -> int:
        return self.done + self.failed


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[idx]


def reduce_trials(records: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per-trial-key reduction: latest terminal event wins, once per key.

    This is the duplicate-free contract: a trial completed before a kill
    and replayed as ``cached`` by the resumed run collapses to one entry,
    as does a trial whose record appears in several merged shards.
    """
    trials: dict[str, dict[str, Any]] = {}
    for rec in records:
        key = rec.get("key")
        if key is None:
            continue
        slot = trials.setdefault(
            key,
            {
                "key": key,
                "experiment": rec.get("experiment"),
                "kwargs": rec.get("kwargs"),
                "state": "pending",
                "terminal": None,
                "retries": 0,
                "timeouts": 0,
                "violations": 0,
                "last_event": None,
            },
        )
        if rec.get("experiment") is not None:
            slot["experiment"] = rec["experiment"]
        if rec.get("kwargs") is not None:
            slot["kwargs"] = rec["kwargs"]
        event = rec["event"]
        slot["last_event"] = event
        if event == "retry":
            slot["retries"] += 1
            slot["state"] = "retrying"
        elif event == "timeout":
            slot["timeouts"] += 1
        elif event == "launched":
            if slot["terminal"] is None:
                slot["state"] = "running"
        elif event in TERMINAL_EVENTS:
            slot["terminal"] = rec  # records are time-sorted: latest wins
            slot["state"] = event
            slot["violations"] = int(rec.get("violations") or 0)
    return trials


def campaign_status(records: list[dict[str, Any]]) -> CampaignStatus:
    """Reduce a loaded feed to the monitor's rollup."""
    status = CampaignStatus()
    declared = 0
    for rec in records:
        if rec["event"] == "sweep-start":
            declared = max(declared, int(rec.get("trials", 0)))
        elif rec["event"] == "sweep-end":
            status.sweep_ended = True
        if status.first_t is None:
            status.first_t = rec.get("t")
        status.last_t = rec.get("t")

    trials = reduce_trials(records)
    status.trials = trials
    status.declared = max(declared, len(trials))

    walls: list[float] = []
    completion_times: list[float] = []
    for slot in trials.values():
        state = slot["state"]
        if state == "completed":
            status.completed += 1
        elif state == "cached":
            status.cached += 1
        elif state == "failed":
            status.failed += 1
        elif state == "retrying":
            status.retrying += 1
        elif state == "running":
            status.running += 1
        status.retries += slot["retries"]
        status.timeouts += slot["timeouts"]
        status.violations += slot["violations"]
        term = slot["terminal"]
        if term is not None:
            if term.get("wall_s") is not None:
                walls.append(float(term["wall_s"]))
            if term["event"] == "completed":
                completion_times.append(float(term["t"]))

        exp = slot["experiment"] or "?"
        rollup = status.by_experiment.setdefault(
            exp,
            {
                "trials": 0,
                "completed": 0,
                "cached": 0,
                "failed": 0,
                "retries": 0,
                "violations": 0,
                "walls": [],
            },
        )
        rollup["trials"] += 1
        if state in ("completed", "cached", "failed"):
            rollup[state] += 1
        rollup["retries"] += slot["retries"]
        rollup["violations"] += slot["violations"]
        if term is not None and term.get("wall_s") is not None:
            rollup["walls"].append(float(term["wall_s"]))

    status.pending = max(
        0, status.declared - status.terminal - status.running - status.retrying
    )
    walls.sort()
    if walls:
        status.wall_p50_s = _percentile(walls, 0.50)
        status.wall_p90_s = _percentile(walls, 0.90)

    # Throughput over the most recent completions; the ETA projects the
    # remaining trials at that rate, falling back to a serial estimate from
    # the wall distribution when fewer than two completions have landed.
    remaining = status.declared - status.terminal
    if len(completion_times) >= 2:
        tail = sorted(completion_times)[-20:]
        spread = tail[-1] - tail[0]
        if spread > 0:
            status.throughput_per_s = (len(tail) - 1) / spread
    if remaining > 0:
        if status.throughput_per_s:
            status.eta_s = remaining / status.throughput_per_s
        elif status.wall_p50_s is not None:
            status.eta_s = remaining * status.wall_p50_s
    for rollup in status.by_experiment.values():
        rollup_walls = sorted(rollup.pop("walls"))
        rollup["wall_p50_s"] = (
            _percentile(rollup_walls, 0.50) if rollup_walls else None
        )
    return status


# ---------------------------------------------------------------------- forensics


def repro_hint(
    experiment: str | None, kwargs: dict[str, Any] | None, key: str | None
) -> str:
    """A paste-able one-liner that replays exactly one trial."""
    seed = (kwargs or {}).get("seed")
    hint = (
        f"run_trial(Trial({experiment!r}, {kwargs!r}))"
        if experiment is not None
        else "run_trial(<unknown trial>)"
    )
    parts = [hint]
    if seed is not None:
        parts.append(f"seed={seed}")
    if key:
        parts.append(f"cache key {key[:12]}")
    return "  # ".join([parts[0], ", ".join(parts[1:])]) if parts[1:] else parts[0]


def mad_outliers(
    values: list[float], k: float = 3.5, min_n: int = 5
) -> list[tuple[int, float]]:
    """Robust outlier indices via the median-absolute-deviation rule.

    Returns ``(index, score)`` pairs where ``score = |x - median| /
    (1.4826 * MAD)`` exceeds *k*.  When the MAD degenerates to zero (a
    majority of identical values) the mean absolute deviation stands in;
    when that is zero too the series is constant and nothing is an
    outlier.  Series shorter than *min_n* are never flagged — a median of
    three points is not evidence.
    """
    n = len(values)
    if n < min_n:
        return []
    ordered = sorted(values)
    mid = n // 2
    median = (
        ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    )
    abs_dev = [abs(v - median) for v in values]
    ordered_dev = sorted(abs_dev)
    mad = (
        ordered_dev[mid]
        if n % 2
        else (ordered_dev[mid - 1] + ordered_dev[mid]) / 2.0
    )
    scale = 1.4826 * mad
    if scale == 0.0:
        mean_abs = sum(abs_dev) / n
        scale = 1.2533 * mean_abs  # MAD fallback for spiky-but-mostly-flat data
    if scale == 0.0:
        return []
    out = []
    for idx, dev in enumerate(abs_dev):
        score = dev / scale
        if score > k:
            out.append((idx, score))
    return out


def detect_anomalies(
    records: list[dict[str, Any]],
    metrics: Iterable[str] = DEFAULT_ANOMALY_METRICS,
    k: float = 3.5,
    min_n: int = 5,
) -> list[dict[str, Any]]:
    """MAD-flag trials whose wall / energy / delivery metrics are outliers.

    Distributions are built **per experiment** (mixing fig2 walls with
    fault-ablation walls would flag the experiment, not the trial) over
    every trial with a successful terminal record.  Each finding carries
    the trial's repro hint so the outlier can be replayed in isolation.
    """
    groups: dict[str, list[dict[str, Any]]] = {}
    for slot in reduce_trials(records).values():
        term = slot["terminal"]
        if term is None or term["event"] == "failed":
            continue
        groups.setdefault(slot["experiment"] or "?", []).append(slot)

    def metric_value(term: dict[str, Any], name: str) -> float | None:
        if name in ("wall_s", "peak_rss_kb"):
            value = term.get(name)
        else:
            value = (term.get("metrics") or {}).get(name)
        return float(value) if isinstance(value, (int, float)) else None

    findings: list[dict[str, Any]] = []
    for experiment, slots in sorted(groups.items()):
        for name in metrics:
            series: list[tuple[dict[str, Any], float]] = []
            for slot in slots:
                value = metric_value(slot["terminal"], name)
                if value is not None:
                    series.append((slot, value))
            values = [v for _, v in series]
            ordered = sorted(values)
            for idx, score in mad_outliers(values, k=k, min_n=min_n):
                slot = series[idx][0]
                findings.append(
                    {
                        "experiment": experiment,
                        "key": slot["key"],
                        "kwargs": slot["kwargs"],
                        "metric": name,
                        "value": values[idx],
                        "median": _percentile(ordered, 0.50),
                        "score": score,
                        "hint": repro_hint(experiment, slot["kwargs"], slot["key"]),
                    }
                )
    findings.sort(key=lambda f: -f["score"])
    return findings


def triage_failures(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Structured triage: settled failures and invariant-violating trials.

    One entry per sick trial (latest state wins — a trial that failed in a
    killed run but completed after resume is healthy), each with the repro
    hint that replays it under ``REPRO_VALIDATE=strict``.
    """
    triaged: list[dict[str, Any]] = []
    for slot in sorted(reduce_trials(records).values(), key=lambda s: s["key"]):
        term = slot["terminal"]
        if term is None:
            continue
        hint = repro_hint(slot["experiment"], slot["kwargs"], slot["key"])
        if term["event"] == "failed":
            triaged.append(
                {
                    "kind": "failure",
                    "experiment": slot["experiment"],
                    "key": slot["key"],
                    "kwargs": slot["kwargs"],
                    "error": term.get("error"),
                    "attempts": term.get("attempts"),
                    "timed_out": bool(term.get("timed_out")),
                    "hint": hint,
                }
            )
        elif slot["violations"]:
            triaged.append(
                {
                    "kind": "invariant-violation",
                    "experiment": slot["experiment"],
                    "key": slot["key"],
                    "kwargs": slot["kwargs"],
                    "violations": slot["violations"],
                    "hint": hint,
                }
            )
    return triaged


# ---------------------------------------------------------------------- rendering


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    return f"{seconds:.1f} s"


def render_status(status: CampaignStatus, width: int = 40) -> str:
    """The live progress block: one bar, one counts line, one rates line."""
    lines = []
    declared = max(status.declared, 1)
    frac = status.terminal / declared
    filled = int(round(frac * width))
    bar = "#" * filled + "." * (width - filled)
    lines.append(
        f"[{bar}] {status.terminal}/{status.declared} trials "
        f"({frac:6.1%}){'  [sweep ended]' if status.sweep_ended else ''}"
    )
    lines.append(
        f"  done {status.done} (completed {status.completed}, cached "
        f"{status.cached})  failed {status.failed}  running {status.running}  "
        f"retrying {status.retrying}  pending {status.pending}"
    )
    rate = (
        f"{status.throughput_per_s:.2f} trials/s"
        if status.throughput_per_s
        else "--"
    )
    wall = (
        f"p50 {status.wall_p50_s:.2f} s / p90 {status.wall_p90_s:.2f} s"
        if status.wall_p50_s is not None
        else "--"
    )
    lines.append(
        f"  throughput {rate}  trial wall {wall}  ETA {_fmt_eta(status.eta_s)}"
    )
    lines.append(
        f"  retries {status.retries}  timeouts {status.timeouts}  "
        f"invariant violations {status.violations}"
    )
    if status.by_experiment:
        lines.append("  per-experiment health:")
        for exp, rollup in sorted(status.by_experiment.items()):
            wall50 = rollup["wall_p50_s"]
            wall_s = f"{wall50:.2f} s" if wall50 is not None else "--"
            sick = rollup["failed"] or rollup["violations"]
            verdict = "SICK" if sick else "ok"
            lines.append(
                f"    {exp:<28} {verdict:<4} "
                f"{rollup['completed'] + rollup['cached']}/{rollup['trials']} done, "
                f"{rollup['failed']} failed, {rollup['retries']} retries, "
                f"{rollup['violations']} violations, wall p50 {wall_s}"
            )
    return "\n".join(lines)


def render_report(
    records: list[dict[str, Any]],
    mad_k: float = 3.5,
    min_n: int = 5,
    top: int = 10,
) -> str:
    """The post-hoc forensics report: status + anomalies + failure triage."""
    status = campaign_status(records)
    lines = [render_status(status)]
    anomalies = detect_anomalies(records, k=mad_k, min_n=min_n)
    if anomalies:
        lines.append(f"\nanomalies (robust MAD, k={mad_k:g}):")
        for finding in anomalies[:top]:
            lines.append(
                f"  {finding['experiment']:<24} {finding['metric']:<20} "
                f"value {finding['value']:.4g} vs median {finding['median']:.4g} "
                f"(score {finding['score']:.1f})"
            )
            lines.append(f"    repro: {finding['hint']}")
        if len(anomalies) > top:
            lines.append(f"  ... {len(anomalies) - top} more")
    else:
        lines.append("\nno metric anomalies.")
    triaged = triage_failures(records)
    if triaged:
        lines.append(f"\ntriage ({len(triaged)} sick trial(s)):")
        for entry in triaged:
            if entry["kind"] == "failure":
                flavor = "timeout" if entry["timed_out"] else "error"
                lines.append(
                    f"  FAILED   {entry['experiment']} after "
                    f"{entry['attempts']} attempt(s) [{flavor}]: "
                    f"{str(entry['error'])[:90]}"
                )
            else:
                lines.append(
                    f"  VIOLATED {entry['experiment']}: "
                    f"{entry['violations']} strict-invariant violation(s)"
                )
            lines.append(f"    repro: {entry['hint']}")
    else:
        lines.append("\nhealth: clean — no failures, no invariant violations.")
    return "\n".join(lines)


# ---------------------------------------------------------------------------- CLI


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.campaign",
        description="Live progress, health rollups, and forensics for a "
        "run_sweep campaign directory (merge several for multi-host shards).",
    )
    parser.add_argument("campaign_dir", nargs="+",
                        help="campaign feed director(ies) from run_sweep(campaign_dir=...)")
    parser.add_argument("--watch", action="store_true",
                        help="refresh the status block until the sweep ends")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh period for --watch (default 2 s)")
    parser.add_argument("--report", action="store_true",
                        help="post-hoc forensics: anomalies + failure triage")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable status/anomalies/triage dump")
    parser.add_argument("--mad-k", type=float, default=3.5,
                        help="MAD outlier threshold (default 3.5)")
    parser.add_argument("--min-n", type=int, default=5,
                        help="minimum samples before flagging outliers (default 5)")
    parser.add_argument("--top", type=int, default=10,
                        help="max anomalies to print (default 10)")
    args = parser.parse_args(argv)

    missing = [d for d in args.campaign_dir if not Path(d).is_dir()]
    if missing:
        print(f"no campaign directory at: {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.watch:
        try:
            while True:
                records = load_feed(args.campaign_dir)
                status = campaign_status(records)
                sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
                print(render_status(status))
                if status.sweep_ended and status.running == 0 and status.retrying == 0:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
        return 0

    records = load_feed(args.campaign_dir)
    if not records:
        print("campaign feed is empty (no feed-*.jsonl shards with records)")
        return 1
    if args.json:
        payload = {
            "status": {
                k: v
                for k, v in vars(campaign_status(records)).items()
                if k != "trials"
            },
            "anomalies": detect_anomalies(records, k=args.mad_k, min_n=args.min_n),
            "triage": triage_failures(records),
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    if args.report:
        print(render_report(records, mad_k=args.mad_k, min_n=args.min_n, top=args.top))
    else:
        print(render_status(campaign_status(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

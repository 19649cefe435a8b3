"""Campaign-observatory demo: streaming feed, live health CLI, forensics.

Four acts, all on a reduced fault-ablation grid (12 sensors, 4 cycles):

1. a sweep streams every trial event (launched / retry / completed /
   failed) into an append-only JSONL campaign feed while a broken-kwargs
   trial fails structurally alongside healthy neighbours;
2. the ``python -m repro.obs.campaign`` report renders progress, per-
   experiment health, and triages the failure with a copy-paste repro
   hint (trial config + cache key);
3. a sweep is SIGKILLed mid-flight and resumed from its own campaign
   feed (a fresh directory: act 1 already settled these trials) — the
   resumed run re-emits each finished trial into the feed exactly once,
   so the merged feed reconciles duplicate-free with the trial count;
4. a doctored wall-time outlier is appended and the MAD anomaly scanner
   flags exactly that trial, again with a repro hint.

Run it::

    PYTHONPATH=src python examples/campaign_monitor.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.runner import Trial, TrialFailure, run_sweep
from repro.obs.campaign import (
    CampaignFeed,
    campaign_status,
    detect_anomalies,
    load_feed,
    reduce_trials,
    render_report,
)

SCALE = dict(n_sensors=12, n_cycles=4)
TRIALS = [Trial("fault_ablation", dict(SCALE, seed=seed)) for seed in range(4)]


def act_one_streaming_feed(campaign: Path) -> None:
    print("== act 1: sweep streams trial events into the campaign feed ==")
    bad = Trial("fault_ablation", {"bogus_option": True})
    results = run_sweep(
        [bad, *TRIALS], retries=1, backoff_base=0.05, campaign_dir=campaign
    )
    assert isinstance(results[0], TrialFailure)
    records = load_feed(campaign)
    events = sorted({r["event"] for r in records})
    print(f"feed holds {len(records)} records, event kinds: {', '.join(events)}")
    status = campaign_status(records)
    assert status.completed == len(TRIALS) and status.failed == 1
    assert status.retries >= 1


def act_two_health_report(campaign: Path) -> None:
    print("\n== act 2: the health report triages the failure with a repro hint ==")
    report = render_report(load_feed(campaign))
    print(report)
    assert "FAILED" in report and "run_trial(Trial(" in report


def journaled(campaign: Path) -> int:
    """Trials whose result the campaign feed holds: what a resume replays."""
    slots = reduce_trials(load_feed(campaign)).values()
    return sum(1 for slot in slots if "result" in (slot["terminal"] or {}))


def act_three_kill_resume_exactly_once(campaign: Path) -> None:
    print("== act 3: SIGKILL mid-sweep, resume re-emits finished trials once ==")
    script = (
        "from repro.experiments.runner import Trial, run_sweep\n"
        f"kwargs = {[t.kwargs for t in TRIALS]!r}\n"
        "trials = [Trial('fault_ablation', k) for k in kwargs]\n"
        f"run_sweep(trials, campaign_dir={str(campaign)!r})\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script])
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if journaled(campaign) >= 1 or proc.poll() is not None:
            break
        time.sleep(0.05)
    if proc.poll() is None:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    survived = journaled(campaign)
    print(f"killed the sweep with {survived}/{len(TRIALS)} trials in its feed")

    run_sweep(TRIALS, resume=True, campaign_dir=campaign)
    records = load_feed(campaign)
    cached = [r for r in records if r["event"] == "cached"]
    assert len(cached) == survived, (len(cached), survived)
    slots = reduce_trials(records)
    terminal = [s for s in slots.values() if s["state"] in ("completed", "cached")]
    print(
        f"resume re-emitted {len(cached)} cached record(s); merged feed "
        f"reconciles to {len(terminal)} unique done trials (duplicate-free)"
    )


def act_four_anomaly_forensics(campaign: Path) -> None:
    print("\n== act 4: the MAD scanner flags a doctored wall-time outlier ==")
    feed = CampaignFeed(campaign)
    trial = TRIALS[0]
    feed.emit_trial(
        "completed",
        "doctored-outlier",
        trial.experiment,
        trial.kwargs,
        summary={"wall_s": 120.0, "metrics": {}, "violations": 0},
    )
    findings = [
        f
        for f in detect_anomalies(load_feed(campaign), min_n=4)
        if f["metric"] == "wall_s"
    ]
    assert any(f["key"] == "doctored-outlier" for f in findings), findings
    worst = max(findings, key=lambda f: f["score"])
    print(
        f"flagged {worst['key']} (wall_s={worst['value']:.1f}, "
        f"MAD score {worst['score']:.1f})"
    )
    print(f"repro: {worst['hint']}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        campaign = Path(tmp) / "campaign"
        act_one_streaming_feed(campaign)
        act_two_health_report(campaign)
        act_three_kill_resume_exactly_once(Path(tmp) / "resumed")
        act_four_anomaly_forensics(campaign)
    print("\ncampaign feed: every trial accounted for, every anomaly traceable")


if __name__ == "__main__":
    main()

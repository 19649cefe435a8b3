"""Campaign feed + monitor + forensics unit tests (repro.obs.campaign).

Covers the journaling discipline (fsynced shards, torn tails, concurrent
and multi-host writers), the duplicate-free status reduction, the robust
MAD anomaly detector, failure triage with repro hints, and the CLI.
"""

import json
import os

import pytest

from repro.obs.campaign import (
    CampaignFeed,
    campaign_status,
    detect_anomalies,
    host_fingerprint,
    load_feed,
    mad_outliers,
    main,
    reduce_trials,
    render_report,
    render_status,
    repro_hint,
    triage_failures,
)


# ------------------------------------------------------------- fingerprint


def test_host_fingerprint_is_stable_and_hostname_free():
    a, b = host_fingerprint(), host_fingerprint()
    assert a["id"] == b["id"] and len(a["id"]) == 12
    assert "hostname" not in a  # containers on one box are one perf host
    for field in ("cpu_model", "cpu_count", "python", "machine"):
        assert field in a


# -------------------------------------------------------------------- feed


def test_feed_roundtrip_sorted_by_time_and_seq(tmp_path):
    feed = CampaignFeed(tmp_path)
    feed.emit("sweep-start", None, trials=2)
    feed.emit_trial("launched", "k1", "exp", {"seed": 0})
    feed.emit_trial("completed", "k1", "exp", {"seed": 0},
                    wall_s=0.5, metrics={}, violations=0)
    records = load_feed(tmp_path)
    assert [r["event"] for r in records] == ["sweep-start", "launched", "completed"]
    assert records[2]["wall_s"] == 0.5
    assert records[1]["host"] == host_fingerprint()["id"]
    assert [r["seq"] for r in records] == [0, 1, 2]


def test_feed_tolerates_torn_tail_and_junk(tmp_path):
    feed = CampaignFeed(tmp_path)
    feed.emit_trial("completed", "k1", "exp", {})
    with open(feed.path, "a", encoding="utf-8") as fh:
        fh.write("\n")                                   # blank line
        fh.write(json.dumps([1, 2, 3]) + "\n")           # valid JSON, not a record
        fh.write('{"t": 99, "event": "completed", "k')   # SIGKILL mid-write
    records = load_feed(tmp_path)
    assert len(records) == 1 and records[0]["key"] == "k1"


def test_two_concurrent_writers_never_share_a_shard(tmp_path, monkeypatch):
    first = CampaignFeed(tmp_path)
    monkeypatch.setattr(os, "getpid", lambda: os.getppid() + 77777)
    second = CampaignFeed(tmp_path)  # another worker process, same dir
    assert first.path != second.path
    first.emit_trial("completed", "k1", "exp", {})
    second.emit_trial("completed", "k2", "exp", {})
    first.emit_trial("completed", "k3", "exp", {})
    records = load_feed(tmp_path)
    assert {r["key"] for r in records} == {"k1", "k2", "k3"}
    assert len(list(tmp_path.glob("feed-*.jsonl"))) == 2


def test_multi_directory_shard_merge(tmp_path):
    host_a, host_b = tmp_path / "hostA", tmp_path / "hostB"
    CampaignFeed(host_a).emit_trial("completed", "k1", "exp", {})
    CampaignFeed(host_b).emit_trial("completed", "k2", "exp", {})
    merged = load_feed([host_a, host_b])
    assert {r["key"] for r in merged} == {"k1", "k2"}
    assert campaign_status(merged).completed == 2


# ------------------------------------------------------------------ status


def _rec(event, key, t, **fields):
    return {"t": t, "seq": int(t * 10), "event": event, "key": key,
            "experiment": fields.pop("experiment", "exp"), **fields}


def test_reduce_trials_latest_terminal_wins():
    records = [
        _rec("launched", "k1", 1.0),
        _rec("completed", "k1", 2.0, wall_s=1.0),
        # the resumed run replays the same trial from its journal:
        _rec("cached", "k1", 3.0, wall_s=1.0, source="journal"),
    ]
    slots = reduce_trials(records)
    assert len(slots) == 1 and slots["k1"]["state"] == "cached"
    status = campaign_status(records)
    assert status.done == 1 and status.completed == 0 and status.cached == 1


def test_campaign_status_counts_and_eta():
    records = [
        {"t": 0.0, "seq": 0, "event": "sweep-start", "key": None, "trials": 6},
        _rec("launched", "k1", 1.0),
        _rec("completed", "k1", 2.0, wall_s=1.0),
        _rec("launched", "k2", 2.0),
        _rec("completed", "k2", 4.0, wall_s=2.0),
        _rec("launched", "k3", 4.0),
        _rec("retry", "k3", 5.0, error="boom"),
        _rec("launched", "k4", 5.0),
        _rec("failed", "k4", 6.0, error="boom", attempts=2),
        _rec("launched", "k5", 6.0),
    ]
    status = campaign_status(records)
    assert status.declared == 6
    assert status.completed == 2 and status.failed == 1
    assert status.retrying == 1 and status.running == 1 and status.pending == 1
    assert status.retries == 1
    assert status.wall_p50_s is not None
    assert status.throughput_per_s is not None and status.eta_s is not None
    assert not status.sweep_ended
    text = render_status(status)
    assert "3/6 trials" in text and "retrying 1" in text


def test_per_experiment_rollup_flags_sick_families():
    records = [
        _rec("completed", "k1", 1.0, experiment="healthy", wall_s=1.0),
        _rec("failed", "k2", 2.0, experiment="sick", error="x", attempts=1),
    ]
    status = campaign_status(records)
    assert status.by_experiment["sick"]["failed"] == 1
    text = render_status(status)
    assert "SICK" in text and "ok" in text


# --------------------------------------------------------------- anomalies


def test_mad_outliers_flags_the_spike():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 8.0]
    flagged = mad_outliers(values)
    assert [idx for idx, _ in flagged] == [6]
    assert flagged[0][1] > 3.5


def test_mad_outliers_constant_series_flags_nothing():
    assert mad_outliers([2.0] * 10) == []


def test_mad_outliers_short_series_flags_nothing():
    assert mad_outliers([1.0, 100.0]) == []
    assert mad_outliers([1.0, 1.0, 1.0, 100.0], min_n=5) == []


def test_mad_outliers_zero_mad_falls_back_to_mean_abs_dev():
    # Median spread is zero (majority identical) but the spike is real.
    values = [1.0] * 7 + [50.0]
    flagged = mad_outliers(values)
    assert [idx for idx, _ in flagged] == [7]


def test_detect_anomalies_groups_per_experiment():
    # Each family is internally tight; mixing them would mis-flag every
    # "slow" trial of the second family.
    records = [
        _rec("completed", f"a{i}", float(i), experiment="fast", wall_s=1.0 + i / 100)
        for i in range(6)
    ] + [
        _rec("completed", f"b{i}", 10.0 + i, experiment="slow", wall_s=50.0 + i / 100)
        for i in range(6)
    ]
    assert detect_anomalies(records) == []
    records.append(
        _rec("completed", "a9", 20.0, experiment="fast",
             kwargs={"seed": 9}, wall_s=30.0)
    )
    findings = detect_anomalies(records)
    assert len(findings) == 1
    finding = findings[0]
    assert finding["key"] == "a9" and finding["metric"] == "wall_s"
    assert "run_trial(Trial('fast'" in finding["hint"]
    assert "seed=9" in finding["hint"]


def test_detect_anomalies_scans_metric_snapshots():
    records = [
        _rec("completed", f"k{i}", float(i), wall_s=1.0,
             metrics={"mac.energy_j": 0.5 + i / 1000})
        for i in range(6)
    ]
    records.append(
        _rec("completed", "hot", 9.0, wall_s=1.0, metrics={"mac.energy_j": 40.0})
    )
    findings = detect_anomalies(records)
    assert any(f["key"] == "hot" and f["metric"] == "mac.energy_j" for f in findings)


# ------------------------------------------------------------------ triage


def test_triage_failures_and_violations_with_hints():
    records = [
        _rec("failed", "k1", 1.0, kwargs={"seed": 3}, error="RuntimeError: boom",
             attempts=3, timed_out=False),
        _rec("completed", "k2", 2.0, kwargs={"seed": 4}, violations=2),
        _rec("completed", "k3", 3.0, violations=0),
    ]
    triaged = triage_failures(records)
    assert {t["kind"] for t in triaged} == {"failure", "invariant-violation"}
    failure = next(t for t in triaged if t["kind"] == "failure")
    assert failure["attempts"] == 3 and "boom" in failure["error"]
    assert "seed=3" in failure["hint"] and "cache key k1" in failure["hint"]
    violated = next(t for t in triaged if t["kind"] == "invariant-violation")
    assert violated["violations"] == 2


def test_triage_trial_healed_by_resume_is_not_sick():
    records = [
        _rec("failed", "k1", 1.0, error="x", attempts=1),
        _rec("completed", "k1", 2.0, wall_s=1.0),  # the resumed run fixed it
    ]
    assert triage_failures(records) == []


def test_relaunched_trial_is_running_not_failed():
    """A resumed sweep re-runs a trial whose fail-fast run raised: while it
    runs again the monitor counts it running, and triage does not list it."""
    records = [
        {"t": 0.0, "seq": 0, "event": "sweep-start", "key": None, "trials": 1},
        _rec("launched", "k1", 1.0),
        _rec("failed", "k1", 2.0, error="boom", attempts=1),
        {"t": 3.0, "seq": 30, "event": "sweep-start", "key": None, "trials": 1},
        _rec("launched", "k1", 4.0),
    ]
    slot = reduce_trials(records)["k1"]
    assert slot["state"] == "running"
    assert slot["terminal"]["event"] == "failed"  # resume still reads it
    status = campaign_status(records)
    assert (status.failed, status.running) == (0, 1)
    assert triage_failures(records) == []


def test_repro_hint_shape():
    hint = repro_hint("fig7c", {"sizes": [8], "seed": 5}, "a" * 64)
    assert hint.startswith("run_trial(Trial('fig7c'")
    assert "seed=5" in hint and "cache key " + "a" * 12 in hint


def test_render_report_sections():
    records = [
        _rec("completed", f"k{i}", float(i), wall_s=1.0) for i in range(6)
    ]
    report = render_report(records)
    assert "no metric anomalies" in report and "health: clean" in report
    records.append(_rec("failed", "bad", 9.0, error="boom", attempts=2))
    report = render_report(records)
    assert "triage (1 sick trial(s))" in report and "repro:" in report


# --------------------------------------------------------------------- CLI


def test_cli_status_and_report(tmp_path, capsys):
    feed = CampaignFeed(tmp_path)
    feed.emit("sweep-start", None, trials=1)
    feed.emit_trial("launched", "k1", "exp", {"seed": 0})
    feed.emit_trial("completed", "k1", "exp", {"seed": 0},
                    wall_s=0.25, metrics={}, violations=0)
    feed.emit("sweep-end", None, trials=1, failures=0)
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1/1 trials" in out and "[sweep ended]" in out
    assert main([str(tmp_path), "--report"]) == 0
    assert "health: clean" in capsys.readouterr().out


def test_cli_json_dump(tmp_path, capsys):
    CampaignFeed(tmp_path).emit_trial("completed", "k1", "exp", {})
    assert main([str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"]["completed"] == 1
    assert payload["triage"] == [] and payload["anomalies"] == []


def test_cli_missing_and_empty_directories(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty)]) == 1


def test_cli_merges_multiple_directories(tmp_path, capsys):
    host_a, host_b = tmp_path / "a", tmp_path / "b"
    CampaignFeed(host_a).emit_trial("completed", "k1", "exp", {})
    CampaignFeed(host_b).emit_trial("completed", "k2", "exp", {})
    assert main([str(host_a), str(host_b)]) == 0
    assert "2/2 trials" in capsys.readouterr().out

"""The per-trial summary on every execution path of the sweep runner.

A trial's summary (flat metrics, invariant-violation count, wall time and
peak RSS) lands once in its terminal campaign-feed record.  It must come
out the same whether the trial ran in-process, on a process pool or under
the healing executor, and a cache hit or a resume replay must reproduce
the fresh record field for field.
"""

import json

import pytest

from repro.experiments.runner import (
    SweepCache,
    Trial,
    run_sweep,
    run_trial,
    run_trial_with_summary,
)
from repro.obs import Telemetry
from repro.obs.campaign import load_feed, reduce_trials

TRIALS = [
    Trial("fig7c", {"sizes": [8], "seeds": [0]}),
    Trial("fig7c", {"sizes": [8], "seeds": [1]}),
]

# Record fields that say when, by whom and how a record was written.
BOOKKEEPING = {"t", "seq", "run", "pid", "event", "source", "attempt"}
SUMMARY = ("metrics", "violations", "wall_s", "peak_rss_kb")


def _terminal(camp) -> list[dict]:
    """Each trial's terminal feed record, in trial order."""
    slots = reduce_trials(load_feed(camp))
    return [slots[trial.cache_key()]["terminal"] for trial in TRIALS]


def _facts(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in BOOKKEEPING}


def _stable_metrics(record: dict) -> dict:
    """The metrics that do not time anything: wall-time histograms vary."""
    return {k: v for k, v in record["metrics"].items() if not k.endswith("_wall_s")}


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """The same two trials swept five ways; each way's terminal records."""
    root = tmp_path_factory.mktemp("sweeps")
    cache = root / "cache"
    runs = {
        "in-process": dict(cache_dir=cache),
        "pool": dict(processes=2),
        "healing": dict(retries=1),
        "cache": dict(cache_dir=cache),
    }
    out = {}
    for name, knobs in runs.items():
        results = run_sweep(TRIALS, campaign_dir=root / name, **knobs)
        assert results == [run_trial(trial) for trial in TRIALS]
        out[name] = _terminal(root / name)
    results = run_sweep(TRIALS, campaign_dir=root / "in-process", resume=True)
    assert results == [run_trial(trial) for trial in TRIALS]
    out["journal"] = _terminal(root / "in-process")
    out["feeds"] = [rec for name in runs for rec in load_feed(root / name)]
    store = SweepCache(cache)
    out["cache-entries"] = [store.get_entry(trial.cache_key()) for trial in TRIALS]
    return out


def _assert_fresh_like_in_process(records: list[dict], reference: list[dict]) -> None:
    for record, ref in zip(records, reference):
        assert record["event"] == "completed"
        assert record["violations"] == ref["violations"] == 0
        assert _stable_metrics(record) == _stable_metrics(ref)
        assert record["wall_s"] > 0
        assert record["peak_rss_kb"] > 0


def _assert_replays(records: list[dict], fresh: list[dict], source: str) -> None:
    for record, ref in zip(records, fresh):
        assert (record["event"], record["source"]) == ("cached", source)
        assert _facts(record) == _facts(ref)


def test_in_process_sweep_records_summaries(sweeps):
    records = sweeps["in-process"]
    _assert_fresh_like_in_process(records, records)
    for record in records:
        assert record["metrics"]["polling.delivered"] > 0
    assert sweeps["feeds"] and not any("telemetry" in rec for rec in sweeps["feeds"])


def test_pool_workers_ship_summaries(sweeps):
    _assert_fresh_like_in_process(sweeps["pool"], sweeps["in-process"])


def test_resilient_path_ships_summaries(sweeps):
    _assert_fresh_like_in_process(sweeps["healing"], sweeps["in-process"])


def test_cache_hits_replay_stored_summaries(sweeps):
    _assert_replays(sweeps["cache"], sweeps["in-process"], "cache")
    for entry, fresh in zip(sweeps["cache-entries"], sweeps["in-process"]):
        assert "telemetry" not in entry
        assert entry["summary"] == {k: fresh[k] for k in SUMMARY}
        assert entry["result"] == fresh["result"]


def test_resume_replays_journaled_summaries(sweeps):
    _assert_replays(sweeps["journal"], sweeps["in-process"], "journal")


def test_no_telemetry_is_the_default_and_free(tmp_path):
    # Only a sweep with a campaign dir traces its trials; tracing never
    # changes a result.
    probe = [Trial("tests.experiments._resilience_workers:traced")]
    assert run_sweep(probe) == [False]
    assert run_sweep(probe, campaign_dir=tmp_path) == [True]
    assert run_sweep(TRIALS) == run_sweep(TRIALS, campaign_dir=tmp_path / "camp")


def test_run_trial_with_summary_matches_plain_run_trial():
    result, summary = run_trial_with_summary(TRIALS[0])
    assert result == run_trial(TRIALS[0])
    assert set(summary) == set(SUMMARY)
    assert summary["wall_s"] > 0 and summary["peak_rss_kb"] > 0
    assert summary["violations"] == 0
    metrics = summary["metrics"]
    assert metrics["polling.delivered"] > 0  # a counter, by value
    assert isinstance(metrics["routing.relay_load"], float)  # a histogram, by mean


def test_summary_flattens_each_metric_to_one_value():
    tel = Telemetry()
    tel.metrics.counter("n").inc(7)
    tel.metrics.gauge("g").set(9.0)
    tel.metrics.histogram("h").observe(1.0)
    tel.metrics.histogram("h").observe(4.0)
    tel.metrics.histogram("empty")
    tel.timeline_event(1.0, "invariant-violation", invariant="x")
    tel.timeline_event(2.0, "head-crash")
    tel.timeline_event(3.0, "invariant-violation", invariant="y")
    summary = tel.summary()
    assert summary == {
        "metrics": {"empty": None, "g": 9.0, "h": 2.5, "n": 7},
        "violations": 2,
    }
    assert json.loads(json.dumps(summary)) == summary  # crosses pipes and files

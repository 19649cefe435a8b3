"""Sweep-runner telemetry aggregation: fork isolation, caches, resume.

Per-trial summaries must survive every execution path the runner has —
in-process, process pool, healing single-trial forks, content-addressed
cache hits, and resume from the campaign feed — and fold into the parent
collector identically in each case.
"""

from repro import obs
from repro.experiments.runner import (
    Trial,
    run_sweep,
    run_trial,
    run_trial_with_summary,
)

TRIALS = [
    Trial("fig7c", {"sizes": [8], "seeds": [0]}),
    Trial("fig7c", {"sizes": [8], "seeds": [1]}),
]


def _snap(tel):
    return tel.metrics.snapshot()


def test_run_trial_with_summary_matches_plain_run_trial():
    result, summary = run_trial_with_summary(TRIALS[0])
    assert result == run_trial(TRIALS[0])
    assert summary["wall_s"] > 0
    assert "polling.delivered" in summary["metrics"]
    # fig7c drives the slot-level scheduler standalone: request spans on
    # the slot clock plus the profiled solve, no DES cycle spans.
    assert "slot:request" in summary["spans"]


def test_in_process_sweep_aggregates(tmp_path):
    tel = obs.Telemetry()
    run_sweep(TRIALS, telemetry=tel)
    snap = _snap(tel)
    assert snap["runner.trials"]["value"] == 2
    assert "runner.cache_hits" not in snap
    assert snap["runner.trial_wall_s"]["count"] == 2
    assert snap["polling.delivered"]["value"] > 0
    assert tel.merged_runs == 2
    assert tel.merged_spans["slot:request"]["count"] > 0


def test_cache_hits_replay_stored_summaries(tmp_path):
    first = obs.Telemetry()
    r1 = run_sweep(TRIALS, cache_dir=tmp_path, telemetry=first)
    second = obs.Telemetry()
    r2 = run_sweep(TRIALS, cache_dir=tmp_path, telemetry=second)
    assert r1 == r2
    snap = _snap(second)
    assert snap["runner.trials"]["value"] == 2
    assert snap["runner.cache_hits"]["value"] == 2
    # The cached summaries carry the same simulation metrics as fresh runs.
    assert snap["polling.delivered"] == _snap(first)["polling.delivered"]


def test_pool_workers_ship_summaries(tmp_path):
    tel = obs.Telemetry()
    results = run_sweep(TRIALS, processes=2, telemetry=tel)
    assert results == run_sweep(TRIALS)
    snap = _snap(tel)
    assert snap["runner.trials"]["value"] == 2
    assert snap["polling.delivered"]["value"] > 0


def test_resilient_path_ships_summaries(tmp_path):
    tel = obs.Telemetry()
    camp = tmp_path / "camp"
    results = run_sweep(TRIALS, retries=1, campaign_dir=camp, telemetry=tel)
    assert results == run_sweep(TRIALS)
    snap = _snap(tel)
    assert snap["runner.trials"]["value"] == 2
    assert snap["polling.delivered"]["value"] > 0

    resumed = obs.Telemetry()
    r2 = run_sweep(
        TRIALS, retries=1, campaign_dir=camp, resume=True, telemetry=resumed
    )
    assert r2 == results
    snap2 = _snap(resumed)
    assert snap2["runner.trials"]["value"] == 2
    assert snap2["runner.cache_hits"]["value"] == 2
    assert snap2["polling.delivered"] == snap["polling.delivered"]


def test_no_telemetry_is_the_default_and_free(tmp_path):
    # No telemetry argument: results identical, nothing collected anywhere.
    assert run_sweep(TRIALS) == run_sweep(TRIALS, telemetry=None)
    disabled = obs.Telemetry(enabled=False)
    run_sweep(TRIALS, telemetry=disabled)
    assert len(disabled.metrics) == 0
    assert disabled.merged_runs == 0

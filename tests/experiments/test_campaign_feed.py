"""Campaign feed integration with the sweep runner (every execution path).

The feed must capture trial lifecycles from the in-process loop, the fork
pool (every record written by the parent), the healing executor (retries,
timeouts, settled failures), cache hits, and journal resume — with the
exactly-once cached-emission contract and a duplicate-free merged feed
across a SIGKILL + resume, reconciling with what run_sweep returned.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments.runner import Trial, TrialFailure, run_sweep
from repro.obs.campaign import campaign_status, load_feed, reduce_trials

W = "tests.experiments._resilience_workers"
REPO_ROOT = Path(__file__).resolve().parents[2]

ECHOES = [Trial(f"{W}:echo", {"value": v}) for v in range(3)]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _journaled(camp) -> set[str]:
    """Keys whose latest terminal feed record carries a result."""
    return {
        key
        for key, slot in reduce_trials(load_feed(camp)).items()
        if "result" in (slot["terminal"] or {})
    }


def _last_run(camp) -> list[dict]:
    """The records of the latest sweep into *camp*."""
    records = load_feed(camp)
    start = max(i for i, r in enumerate(records) if r["event"] == "sweep-start")
    return records[start:]


def test_feed_off_and_on_results_identical(tmp_path):
    plain = run_sweep(ECHOES)
    with_feed = run_sweep(ECHOES, campaign_dir=tmp_path / "camp")
    assert plain == with_feed  # the feed observes, never perturbs


def test_in_process_sweep_streams_lifecycle(tmp_path):
    camp = tmp_path / "camp"
    run_sweep(ECHOES, campaign_dir=camp)
    records = load_feed(camp)
    events = [r["event"] for r in records]
    assert events[0] == "sweep-start" and events[-1] == "sweep-end"
    assert events.count("launched") == 3 and events.count("completed") == 3
    completed = [r for r in records if r["event"] == "completed"]
    assert all(r["wall_s"] > 0 for r in completed)
    assert all(r["kwargs"] == {"value": i} for i, r in enumerate(completed))
    status = campaign_status(records)
    assert status.completed == 3 and status.declared == 3 and status.sweep_ended


def test_pool_sweep_records_come_from_the_parent(tmp_path):
    camp = tmp_path / "camp"
    results = run_sweep(ECHOES, processes=2, campaign_dir=camp)
    assert results == run_sweep(ECHOES)
    records = load_feed(camp)
    assert {r["pid"] for r in records} == {os.getpid()}  # one writer
    status = campaign_status(records)
    assert status.completed == 3 and status.sweep_ended


def test_resilient_retry_and_failure_events(tmp_path):
    camp = tmp_path / "camp"
    results = run_sweep(
        [Trial(f"{W}:boom", {"value": 5}), ECHOES[0]],
        retries=1,
        backoff_base=0.01,
        campaign_dir=camp,
    )
    assert isinstance(results[0], TrialFailure)
    records = load_feed(camp)
    retries = [r for r in records if r["event"] == "retry"]
    assert len(retries) == 1 and "boom(5)" in retries[0]["error"]
    assert retries[0]["next_delay_s"] > 0
    failed = [r for r in records if r["event"] == "failed"]
    assert len(failed) == 1 and failed[0]["attempts"] == 2
    status = campaign_status(records)
    assert status.failed == 1 and status.completed == 1 and status.retries == 1


def test_flaky_trial_heals_and_reports_attempt(tmp_path):
    camp = tmp_path / "camp"
    counter = tmp_path / "counter"
    results = run_sweep(
        [Trial(f"{W}:flaky", {"counter_path": str(counter), "fail_times": 1})],
        retries=2,
        backoff_base=0.01,
        campaign_dir=camp,
    )
    assert not isinstance(results[0], TrialFailure)
    records = load_feed(camp)
    completed = [r for r in records if r["event"] == "completed"]
    assert len(completed) == 1 and completed[0]["attempt"] == 2
    assert [r["event"] for r in records].count("retry") == 1


def test_timeout_event_lands_in_feed(tmp_path):
    camp = tmp_path / "camp"
    results = run_sweep(
        [Trial(f"{W}:sleepy", {"seconds": 60.0})],
        timeout=0.5,
        retries=0,
        campaign_dir=camp,
    )
    assert isinstance(results[0], TrialFailure) and results[0].timed_out
    records = load_feed(camp)
    timeouts = [r for r in records if r["event"] == "timeout"]
    assert len(timeouts) == 1 and timeouts[0]["timeout_s"] == 0.5
    failed = [r for r in records if r["event"] == "failed"]
    assert failed and failed[0]["timed_out"]


def test_cache_hits_emit_cached_records(tmp_path):
    camp1, camp2 = tmp_path / "c1", tmp_path / "c2"
    run_sweep(ECHOES, cache_dir=tmp_path / "cache", campaign_dir=camp1)
    run_sweep(ECHOES, cache_dir=tmp_path / "cache", campaign_dir=camp2)
    records = load_feed(camp2)
    cached = [r for r in records if r["event"] == "cached"]
    assert len(cached) == 3 and all(r["source"] == "cache" for r in cached)
    assert [r["event"] for r in records].count("launched") == 0


def test_trial_in_cache_and_journal_emits_cached_exactly_once(tmp_path):
    """Double-count regression: a trial satisfied by BOTH the cache and the
    resume journal must contribute one feed record, not two."""
    cache_dir = tmp_path / "cache"
    camp = tmp_path / "camp"
    run_sweep(ECHOES, cache_dir=cache_dir, campaign_dir=camp)
    journaled = _journaled(camp)
    assert len(journaled) == 3  # journaled AND cached

    results = run_sweep(ECHOES, cache_dir=cache_dir, resume=True, campaign_dir=camp)
    assert results == [{"value": v, "square": v * v} for v in range(3)]
    records = _last_run(camp)
    cached = [r for r in records if r["event"] == "cached"]
    assert len(cached) == 3  # once per trial, not once per source
    assert {r["key"] for r in cached} == journaled


def test_sigkill_mid_sweep_then_resume_feed_is_duplicate_free(tmp_path):
    """Kill a real sweep streaming into a campaign dir, resume into the same
    dir: the merged feed must reconcile every trial exactly once and agree
    with what run_sweep returned."""
    camp = tmp_path / "camp"
    values = list(range(5))
    kwargs = [{"value": v, "seconds": 0.25} for v in values]
    trials = [Trial(f"{W}:slow_echo", k) for k in kwargs]

    script = (
        "from repro.experiments.runner import Trial, run_sweep\n"
        f"kwargs = {kwargs!r}\n"
        f"trials = [Trial({W!r} + ':slow_echo', k) for k in kwargs]\n"
        f"run_sweep(trials, campaign_dir={str(camp)!r})\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=_env(), cwd=str(REPO_ROOT)
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if len(_journaled(camp)) >= 2 or proc.poll() is not None:
            break
        time.sleep(0.05)
    if proc.poll() is None:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    journaled_at_kill = _journaled(camp)
    assert journaled_at_kill

    results = run_sweep(trials, resume=True, campaign_dir=camp)
    assert results == [{"value": v, "square": v * v} for v in values]

    records = load_feed(camp)
    # The resumed run replays each journaled trial as `cached` exactly once.
    replayed = [r for r in records if r["event"] == "cached"]
    assert len(replayed) == len(journaled_at_kill)
    assert {r["key"] for r in replayed} == journaled_at_kill
    # Per-key reduction is duplicate-free: every trial lands exactly one
    # terminal state, and the rollup reconciles with the results list.
    slots = reduce_trials(records)
    assert len(slots) == len(trials)
    assert all(s["state"] in ("completed", "cached") for s in slots.values())
    status = campaign_status(records)
    assert status.done == len(trials) and status.failed == 0
    assert status.cached == len(journaled_at_kill)
    assert status.sweep_ended

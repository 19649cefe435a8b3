"""Self-healing sweep runner tests: retry, timeout, crash, kill+resume.

The workers live in :mod:`tests.experiments._resilience_workers` (top-level
module, addressable as ``"tests.experiments._resilience_workers:fn"``)
because the resilient executor re-resolves the experiment inside each forked
worker.  The kill/resume test SIGKILLs a *real* sweep subprocess mid-flight
and asserts the resumed run is bit-for-bit identical to an uninterrupted one
— the acceptance criterion for the campaign feed as the resume journal.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import (
    SweepCache,
    Trial,
    TrialFailure,
    code_version,
    run_sweep,
)
from repro.obs.campaign import load_feed, reduce_trials

W = "tests.experiments._resilience_workers"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _terminals(camp) -> dict[str, dict]:
    """Latest terminal feed record per trial key."""
    return {
        key: slot["terminal"]
        for key, slot in reduce_trials(load_feed(camp)).items()
        if slot["terminal"] is not None
    }


def _journaled(camp) -> set[str]:
    """Keys whose latest terminal feed record carries a result."""
    return {key for key, term in _terminals(camp).items() if "result" in term}


# ------------------------------------------------------- cache crash safety


def test_cache_put_is_atomic_no_temp_left_behind(tmp_path):
    cache = SweepCache(tmp_path)
    trial = Trial(f"{W}:echo", {"value": 1})
    key = trial.cache_key()
    cache.put(key, trial, {"v": 1})
    assert cache.get(key) == {"v": 1}
    leftovers = [p for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []


def test_cache_evicts_corrupt_entry_and_recovers(tmp_path):
    cache = SweepCache(tmp_path)
    trial = Trial(f"{W}:echo", {"value": 2})
    key = trial.cache_key()
    cache.put(key, trial, {"v": 2})
    path = cache._path(key)
    path.write_text("{ truncated by a crash", encoding="utf-8")
    assert cache.get(key) is None  # corrupt -> clean miss
    assert cache.evictions == 1
    assert not path.exists()  # evicted: the poison is gone for good
    cache.put(key, trial, {"v": 2})  # and the slot is usable again
    assert cache.get(key) == {"v": 2}


def test_cache_evicts_wrong_shape_payload(tmp_path):
    cache = SweepCache(tmp_path)
    trial = Trial(f"{W}:echo", {"value": 3})
    key = trial.cache_key()
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")  # valid JSON, not an entry
    assert cache.get(key) is None
    assert cache.evictions == 1


# ------------------------------------------- the campaign feed as checkpoint


def test_checkpoint_roundtrip_and_truncated_tail(tmp_path):
    camp = tmp_path / "camp"
    trials = [Trial(f"{W}:echo", {"value": v}) for v in (1, 2, 3)]
    k1, k2, k3 = (t.cache_key() for t in trials)
    run_sweep(trials[:2], campaign_dir=camp)
    # The shard of a writer SIGKILLed mid-write ends in a torn line.
    torn = camp / "feed-killed-0.jsonl"
    torn.write_text(f'{{"event": "completed", "key": "{k3}", "result"', encoding="utf-8")
    assert _journaled(camp) == {k1, k2}  # torn line skipped, rest intact
    assert _terminals(camp)[k1]["result"] == {"value": 1, "square": 1}

    resumed = run_sweep(trials, campaign_dir=camp, resume=True)
    assert resumed == run_sweep(trials)
    records = load_feed(camp)
    replayed = {r["key"] for r in records if r.get("source") == "journal"}
    assert replayed == {k1, k2}  # k3's torn record did not count: it ran
    assert [r["key"] for r in records if r["event"] == "launched"] == [k1, k2, k3]


def test_checkpoint_records_failures(tmp_path):
    camp = tmp_path / "camp"
    trial = Trial(f"{W}:boom", {"value": 1})
    (failure,) = run_sweep([trial], timeout=30.0, campaign_dir=camp)
    assert isinstance(failure, TrialFailure)
    term = _terminals(camp)[trial.cache_key()]
    assert term["settled"] is True  # the healing executor gave up on it
    assert TrialFailure.from_dict(term) == failure


# ------------------------------------------------- retry / timeout / crash


def test_raising_worker_is_retried_then_skipped():
    result = run_sweep(
        [Trial(f"{W}:boom", {"value": 7}), Trial(f"{W}:echo", {"value": 2})],
        timeout=30.0,
        retries=2,
        backoff_base=0.01,
    )
    failure, ok = result
    assert isinstance(failure, TrialFailure)
    assert failure.attempts == 3 and not failure.timed_out
    assert "boom(7)" in failure.error
    assert ok == {"value": 2, "square": 4}  # the failure never poisons neighbours


def test_flaky_worker_succeeds_on_retry(tmp_path):
    counter = tmp_path / "counter"
    result = run_sweep(
        [Trial(f"{W}:flaky", {"counter_path": str(counter), "fail_times": 1, "value": 3})],
        retries=2,
        backoff_base=0.01,
    )
    assert result == [{"value": 3, "attempts": 2}]


def test_hanging_worker_times_out_and_is_replaced():
    start = time.monotonic()
    result = run_sweep(
        [Trial(f"{W}:sleepy", {"seconds": 60.0})],
        timeout=0.5,
        retries=1,
        backoff_base=0.01,
    )
    elapsed = time.monotonic() - start
    failure = result[0]
    assert isinstance(failure, TrialFailure)
    assert failure.timed_out and failure.attempts == 2
    assert elapsed < 30.0  # the 60 s hang was killed, twice, well within budget


def test_silently_dying_worker_is_detected():
    result = run_sweep(
        [Trial(f"{W}:die", {})], timeout=30.0, retries=1, backoff_base=0.01
    )
    failure = result[0]
    assert isinstance(failure, TrialFailure)
    assert "died" in failure.error and failure.attempts == 2


def test_resume_requires_campaign_dir():
    with pytest.raises(ValueError, match="campaign_dir"):
        run_sweep([Trial(f"{W}:echo", {})], resume=True)


def test_failures_are_checkpointed_not_retried_on_resume(tmp_path):
    camp = tmp_path / "camp"
    trials = [Trial(f"{W}:boom", {"value": 1})]
    first = run_sweep(trials, timeout=30.0, campaign_dir=camp)
    assert isinstance(first[0], TrialFailure)
    launches_before = [r["event"] for r in load_feed(camp)].count("launched")
    second = run_sweep(trials, timeout=30.0, campaign_dir=camp, resume=True)
    assert second[0] == first[0]  # replayed from the journal ...
    launches = [r["event"] for r in load_feed(camp)].count("launched")
    assert launches == launches_before  # ... not re-run


# --------------------------------------------------------- kill + resume


def test_sigkill_mid_sweep_then_resume_is_bit_for_bit(tmp_path):
    """Kill a real sweep subprocess mid-flight; resume must (a) not re-run
    checkpointed trials and (b) produce results identical to a run that was
    never interrupted."""
    camp = tmp_path / "camp"
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    values = list(range(6))
    kwargs = [
        {"value": v, "seconds": 0.25, "marker_dir": str(marker_dir)} for v in values
    ]
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
    # Wait until at least two trials are checkpointed, then pull the plug.
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done = len(_journaled(camp))
        if done >= 2:
            break
        if proc.poll() is not None:  # finished before we could kill it
            break
        time.sleep(0.05)
    if proc.poll() is None:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)

    completed_at_kill = _journaled(camp)
    assert completed_at_kill  # the sweep made some progress before dying
    code = code_version()
    value_by_key = {t.cache_key(code): t.kwargs["value"] for t in trials}
    marker_counts_at_kill = {
        v: (marker_dir / f"exec-{v}").stat().st_size
        for v in values
        if (marker_dir / f"exec-{v}").exists()
    }

    resumed = run_sweep(trials, campaign_dir=camp, resume=True)
    uninterrupted = run_sweep(
        [Trial(f"{W}:slow_echo", dict(k, marker_dir=None)) for k in kwargs]
    )
    assert resumed == uninterrupted  # bit-for-bit: kill+resume == never killed

    for key in completed_at_kill:
        v = value_by_key[key]
        assert (marker_dir / f"exec-{v}").stat().st_size == marker_counts_at_kill[v], (
            f"checkpointed trial value={v} was re-executed on resume"
        )

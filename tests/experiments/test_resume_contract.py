"""Resume contract of the sweep runner: the campaign feed is the journal.

``resume=True`` replays every trial whose latest terminal feed record
carries a result (as ``cached``, source ``journal``) or a failure the
healing executor settled, and runs every other trial — including one whose
fail-fast run raised, from a trial exception or a Ctrl-C.  The workers live
in :mod:`tests.experiments._resilience_workers`.
"""

import os

import pytest

from repro.experiments.runner import Trial, TrialFailure, run_sweep
from repro.obs.campaign import load_feed

W = "tests.experiments._resilience_workers"

ECHOES = [Trial(f"{W}:echo", {"value": v}) for v in range(3)]
ECHOED = [{"value": v, "square": v * v} for v in range(3)]


def _last_run(camp) -> list[dict]:
    """The records of the latest sweep into *camp*."""
    records = load_feed(camp)
    start = max(i for i, r in enumerate(records) if r["event"] == "sweep-start")
    return records[start:]


def _events(records: list[dict], event: str) -> list[dict]:
    return [r for r in records if r["event"] == event]


def test_resumed_twice_serves_every_trial_from_the_feed(tmp_path):
    camp = tmp_path / "camp"
    assert run_sweep(ECHOES, campaign_dir=camp) == ECHOED
    keys = sorted(t.cache_key() for t in ECHOES)
    for _ in range(2):
        assert run_sweep(ECHOES, campaign_dir=camp, resume=True) == ECHOED
        cached = _events(_last_run(camp), "cached")
        assert sorted(r["key"] for r in cached) == keys
        assert {r["source"] for r in cached} == {"journal"}
    launched = _events(load_feed(camp), "launched")
    assert sorted(r["key"] for r in launched) == keys  # one launch per trial, ever


def test_sweep_without_resume_runs_every_trial_again(tmp_path):
    camp = tmp_path / "camp"
    run_sweep(ECHOES, campaign_dir=camp)
    assert run_sweep(ECHOES, campaign_dir=camp) == ECHOED
    run = _last_run(camp)
    assert len(_events(run, "launched")) == 3 and not _events(run, "cached")


@pytest.mark.parametrize(
    "worker, raised",
    [("flaky", RuntimeError), ("interrupted", KeyboardInterrupt)],
)
def test_fail_fast_failure_runs_again_on_resume(tmp_path, worker, raised):
    """A fail-fast sweep that raised settled nothing for its raising trial:
    resume runs it again, and serves its finished neighbour from the feed."""
    camp = tmp_path / "camp"
    sick = Trial(f"{W}:{worker}", {"counter_path": str(tmp_path / "n"), "value": 5})
    trials = [ECHOES[0], sick]
    with pytest.raises(raised):
        run_sweep(trials, campaign_dir=camp)
    (failed,) = _events(load_feed(camp), "failed")
    assert failed["key"] == sick.cache_key() and not failed.get("settled")

    assert run_sweep(trials, campaign_dir=camp, resume=True) == [
        ECHOED[0],
        {"value": 5, "attempts": 2},
    ]
    run = _last_run(camp)
    assert [r["key"] for r in _events(run, "cached")] == [ECHOES[0].cache_key()]
    assert [r["key"] for r in _events(run, "launched")] == [sick.cache_key()]


def test_settled_failure_replays_without_a_new_launch(tmp_path):
    camp = tmp_path / "camp"
    trials = [Trial(f"{W}:boom", {"value": 4}), ECHOES[1]]
    first = run_sweep(trials, timeout=30.0, campaign_dir=camp)
    assert isinstance(first[0], TrialFailure) and first[1] == ECHOED[1]
    launches = len(_events(load_feed(camp), "launched"))

    assert run_sweep(trials, campaign_dir=camp, resume=True) == first
    assert len(_events(load_feed(camp), "launched")) == launches
    (replayed,) = _events(_last_run(camp), "failed")
    assert replayed["settled"] and replayed["source"] == "journal"
    assert TrialFailure.from_dict(replayed) == first[0]


@pytest.mark.parametrize("feed", [False, True])
def test_pool_sweep_raises_the_trials_own_exception(tmp_path, feed):
    trials = [ECHOES[0], Trial(f"{W}:boom", {"value": 9}), ECHOES[1]]
    camp = tmp_path / "camp" if feed else None
    with pytest.raises(RuntimeError, match=r"boom\(9\)"):
        run_sweep(trials, processes=2, campaign_dir=camp)


def test_pool_abort_records_the_trials_it_stops_as_failed(tmp_path):
    """Leaving the pool terminates the trials still in flight, so the feed
    must not show them running; their failure is unsettled, so resume
    would run them again."""
    camp = tmp_path / "camp"
    hung = Trial(f"{W}:sleepy", {"seconds": 60.0})
    with pytest.raises(RuntimeError, match=r"boom\(2\)"):
        run_sweep([Trial(f"{W}:boom", {"value": 2}), hung], processes=2, campaign_dir=camp)
    (stopped,) = [r for r in _events(load_feed(camp), "failed") if r["key"] == hung.cache_key()]
    assert stopped["error"] == "stopped by RuntimeError: boom(2)"
    assert not stopped.get("settled")


def test_pool_launches_a_trial_only_when_a_worker_is_free(tmp_path):
    camp = tmp_path / "camp"
    trials = [Trial(f"{W}:slow_echo", {"value": v, "seconds": 0.05}) for v in range(5)]
    run_sweep(trials, processes=2, campaign_dir=camp)
    in_flight = peak = 0
    for record in load_feed(camp):
        assert record["pid"] == os.getpid()
        if record["event"] == "launched":
            in_flight += 1
        elif record["event"] in ("completed", "failed"):
            in_flight -= 1
        peak = max(peak, in_flight)
    assert peak == 2 and in_flight == 0

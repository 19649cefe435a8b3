"""Self-healing sweep demo: structured failure, SIGKILL, resume from the feed.

Three acts, all on a reduced fault-ablation grid (12 sensors, 4 cycles):

1. a trial with broken kwargs raises in its worker; the runner retries it,
   then settles a structured ``TrialFailure`` into its result slot while
   the healthy neighbour trials complete normally;
2. a real sweep subprocess is SIGKILLed mid-flight, exactly as an OOM
   killer or a preempted node would — its campaign feed keeps the result
   of every trial that finished;
3. ``run_sweep(..., campaign_dir=..., resume=True)`` replays those results
   from the feed, re-runs only the missing trials, and the merged rows are
   bit-for-bit identical to a run that was never interrupted.

Run it::

    PYTHONPATH=src python examples/resilient_sweep.py
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
from repro.obs.campaign import load_feed, reduce_trials

SCALE = dict(n_sensors=12, n_cycles=4)
TRIALS = [Trial("fault_ablation", dict(SCALE, seed=seed)) for seed in range(4)]


def journaled(campaign: Path) -> int:
    """Trials whose result the campaign feed holds: what a resume replays."""
    slots = reduce_trials(load_feed(campaign)).values()
    return sum(1 for slot in slots if "result" in (slot["terminal"] or {}))


def act_one_structured_failure() -> None:
    print("== act 1: a broken trial fails structurally, neighbours survive ==")
    bad = Trial("fault_ablation", {"bogus_option": True})
    results = run_sweep([bad, TRIALS[0]], retries=1, backoff_base=0.05)
    failure, healthy = results
    assert isinstance(failure, TrialFailure)
    print(f"bad trial   : TrialFailure after {failure.attempts} attempts")
    print(f"              {failure.error.splitlines()[0][:70]}")
    print(f"good trial  : {len(healthy)} rows delivered alongside the failure")


def act_two_and_three_kill_then_resume() -> None:
    print("== act 2: SIGKILL a sweep mid-flight ==")
    with tempfile.TemporaryDirectory() as tmp:
        campaign = Path(tmp) / "campaign"
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

        print("== act 3: resume from the campaign feed ==")
        t0 = time.perf_counter()
        resumed = run_sweep(TRIALS, campaign_dir=campaign, resume=True)
        t_resume = time.perf_counter() - t0
        t0 = time.perf_counter()
        uninterrupted = run_sweep(TRIALS)
        t_full = time.perf_counter() - t0
        print(
            f"resume re-ran {len(TRIALS) - survived} trials in {t_resume:.2f} s "
            f"(full sweep: {t_full:.2f} s)"
        )
        print(f"resumed rows match uninterrupted run: {resumed == uninterrupted}")


def main() -> None:
    act_one_structured_failure()
    act_two_and_three_kill_then_resume()
    print("kill + resume: bit-for-bit, no trial ran twice, no progress lost")


if __name__ == "__main__":
    main()

"""Smoke tests: every example script runs clean as a subprocess.

The examples are a deliverable; these keep them from rotting as the API
evolves.  The two DES-heavy scripts run with a generous timeout.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 420) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "polling finished in 2 slots" in out
    assert "validated" in out


def test_hardness_gadgets_runs():
    out = run_example("hardness_gadgets.py")
    assert "physical-model realization agrees with gadget oracle: True" in out
    assert "meets threshold: True" in out


def test_fault_injection_runs():
    out = run_example("fault_injection.py")
    assert "killing relay" in out
    assert "route repairs    : 1" in out
    assert "repaired routing, and kept polling" in out


def test_parallel_sweep_runs():
    out = run_example("parallel_sweep.py")
    assert "parallel rows match sequential: True" in out
    assert "cache hit: True" in out
    assert "pool, sequential, and cached paths all agree" in out


def test_resilient_sweep_runs():
    out = run_example("resilient_sweep.py")
    assert "TrialFailure after 2 attempts" in out
    assert "resumed rows match uninterrupted run: True" in out
    assert "no progress lost" in out


def test_campaign_monitor_runs():
    out = run_example("campaign_monitor.py")
    assert "event kinds: completed, failed, launched, retry" in out
    assert "FAILED" in out and "repro: run_trial(Trial(" in out
    assert "reconciles to 4 unique done trials (duplicate-free)" in out
    assert "MAD score" in out
    assert "every trial accounted for, every anomaly traceable" in out


def test_failover_runs():
    out = run_example("failover.py")
    assert "H1 adopts 10 orphans of dead H0" in out
    assert "H2 adopts 7 orphans of dead H0" in out
    assert "the network survived both a dead relay and a dead head." in out


def test_churn_recluster_runs():
    out = run_example("churn_recluster.py")
    assert "re-form (membership)" in out
    assert "joiners were admitted, departures repaired" in out


@pytest.mark.slow
def test_field_handoff_runs():
    out = run_example("field_handoff.py")
    assert "re-form (membership)" in out
    assert "the forming stayed fresh" in out


@pytest.mark.slow
def test_environment_monitoring_runs():
    out = run_example("environment_monitoring.py")
    assert "throughput ratio 1.000" in out
    assert "lifetime ratio" in out


@pytest.mark.slow
def test_multicluster_runs():
    out = run_example("multicluster.py")
    assert "channel assignment" in out
    assert "token or the channel coloring removes the loss" in out


@pytest.mark.slow
def test_smac_comparison_runs():
    out = run_example("smac_comparison.py", timeout=600)
    assert "Multihop Polling" in out
    assert "SMAC" in out


@pytest.mark.slow
def test_trace_inspect_runs():
    out = run_example("trace_inspect.py")
    assert "collected" in out and "spans" in out
    assert "head blacklists" in out
    assert "re-routes around" in out
    assert "per-phase simulation time" in out
    assert "per-radio energy" in out
    assert "traces to its originating poll request" in out

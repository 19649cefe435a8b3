"""End-to-end telemetry: traced polling runs, export, inspect, acceptance.

The acceptance path of DESIGN.md §10: a faulted fig2-style run must export
a Chrome trace in which at least one failed delivery is traceable end to
end — poll request span → retry events → blacklist/failover event → the
``replan`` event that routed around the death — and the inspect CLI's per-radio energy must reconcile with
:mod:`repro.metrics.energy` within float tolerance.  Just as load-bearing:
with telemetry disabled the simulation must be bit for bit identical to an
untraced run.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultPlan, NodeCrash
from repro.metrics.energy import energy_report
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.obs import export_chrome_trace, export_jsonl, load_jsonl
from repro.obs.inspect import failure_chains, per_phase_time, summarize


def _relay_of(result):
    plan = result.mac.routing.routing_plan()
    relays = sorted({n for p in plan.paths.values() for n in p[1:-1] if n >= 0})
    assert relays, "seed must produce a multi-hop topology"
    return relays[0]


@pytest.fixture(scope="module")
def faulted_traced(tmp_path_factory):
    """One relay-crash run with telemetry on, plus its exported trace."""
    base = run_polling_simulation(PollingSimConfig(n_sensors=30, n_cycles=8, seed=3))
    victim = _relay_of(base)
    plan = FaultPlan(crashes=[NodeCrash(node=victim, at=20.3)])
    cfg = PollingSimConfig(n_sensors=30, n_cycles=8, seed=3, fault_plan=plan)
    with obs.use(obs.Telemetry()):
        res = run_polling_simulation(cfg)
    assert res.telemetry is not None
    out = tmp_path_factory.mktemp("trace")
    jsonl = export_jsonl(res.telemetry, out / "trace.jsonl")
    chrome = export_chrome_trace(res.telemetry, out / "trace.json")
    return victim, res, jsonl, chrome


def test_telemetry_off_is_bit_for_bit_identical():
    cfg = PollingSimConfig(n_sensors=20, n_cycles=4, seed=7)
    plain = run_polling_simulation(cfg)
    with obs.use(obs.Telemetry()):
        traced = run_polling_simulation(cfg)
    assert plain.telemetry is None
    assert traced.telemetry is not None
    assert plain.packets_generated == traced.packets_generated
    assert plain.packets_delivered == traced.packets_delivered
    assert plain.elapsed == traced.elapsed
    np.testing.assert_array_equal(plain.active_fraction, traced.active_fraction)
    np.testing.assert_array_equal(
        energy_report(plain.phy).consumed_j, energy_report(traced.phy).consumed_j
    )


def test_traced_run_has_span_hierarchy(faulted_traced):
    _, res, _, _ = faulted_traced
    tel = res.telemetry
    runs = tel.spans_of("run")
    assert len(runs) == 1 and runs[0].clock == "wall"
    cycles = tel.spans_of("cycle")
    assert len(cycles) == res.config.n_cycles
    assert all(c.parent_id == runs[0].span_id for c in cycles)
    phases = tel.spans_of("phase")
    assert phases and all(
        tel.find_span(p.parent_id).kind == "cycle" for p in phases
    )
    requests = tel.spans_of("request")
    assert requests and all(
        tel.find_span(r.parent_id).kind == "phase" for r in requests
    )


def test_cycle_snapshots_and_energy_deltas(faulted_traced):
    _, res, _, _ = faulted_traced
    tel = res.telemetry
    snaps = tel.cycle_snapshots
    assert len(snaps) == res.config.n_cycles
    # Per-cycle energy deltas sum (over cycles + the untraced idle tail)
    # to no more than the final per-radio totals.
    deltas = np.array([s["energy_delta_j"] for s in snaps])
    totals = np.array(tel.extras["energy_per_radio_j"])
    assert deltas.shape[1] == totals.shape[0]
    assert np.all(deltas >= 0)
    assert np.all(deltas.sum(axis=0) <= totals + 1e-12)


def test_extras_energy_reconciles_with_energy_report(faulted_traced):
    _, res, _, _ = faulted_traced
    report = energy_report(res.phy)
    recorded = np.array(res.telemetry.extras["energy_per_radio_j"])
    # Layout: sensors 0..n-1 then the head last (phy.head_index).
    np.testing.assert_allclose(recorded[:-1], report.consumed_j, rtol=1e-12)
    assert recorded[-1] == pytest.approx(report.head_consumed_j, rel=1e-12)


def test_failed_delivery_traceable_end_to_end(faulted_traced):
    victim, res, jsonl, _ = faulted_traced
    trace = load_jsonl(jsonl)
    chains = failure_chains(trace)
    assert chains, "a mid-cycle relay crash must fail at least one request"
    # At least one chain must carry the full causal story: the request's
    # own retry events, the blacklist that wrote the sensor off, and a
    # re-plan that routed around the death.
    complete = [
        c
        for c in chains
        if any(e["name"] == "retry" for e in c["events"])
        and c["blacklist"]
        and c["repairs"]
    ]
    assert complete, "no failed request links retry -> blacklist -> re-plan"
    # The re-plan events must name the crashed relay among the excluded.
    assert any(
        victim in r["attrs"]["excluded"]
        for c in complete
        for r in c["repairs"]
    )


def test_blacklist_and_failover_style_events_on_timeline(faulted_traced):
    _, res, _, _ = faulted_traced
    names = {e.name for e in res.telemetry.timeline}
    assert "blacklist" in names


def test_jsonl_roundtrip(faulted_traced):
    _, res, jsonl, _ = faulted_traced
    trace = load_jsonl(jsonl)
    assert len(trace["spans"]) == len(res.telemetry.spans)
    assert len(trace["timeline"]) == len(res.telemetry.timeline)
    assert len(trace["cycles"]) == len(res.telemetry.cycle_snapshots)
    assert trace["meta"]["metrics"] == res.telemetry.metrics.snapshot()


def test_jsonl_load_skips_truncated_tail(faulted_traced, tmp_path):
    _, _, jsonl, _ = faulted_traced
    clipped = tmp_path / "clipped.jsonl"
    lines = Path(jsonl).read_text().splitlines()
    clipped.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
    trace = load_jsonl(clipped)
    assert len(trace["spans"]) >= 1  # everything before the torn line survives


def test_chrome_trace_is_valid_and_tracked_per_clock(faulted_traced):
    _, res, _, chrome = faulted_traced
    payload = json.loads(Path(chrome).read_text())
    events = payload["traceEvents"]
    cats = {e.get("cat") for e in events}
    assert {"cycle", "phase", "request"} <= cats
    pids = {e["pid"] for e in events if e.get("ph") == "X"}
    assert {1, 2} <= pids  # sim spans and wall profiling on separate tracks
    # Request spans fan out one thread per sensor.
    req_tids = {e["tid"] for e in events if e.get("cat") == "request"}
    assert all(t >= 100 for t in req_tids) and len(req_tids) > 1


def test_per_phase_time_covers_the_duty_cycle(faulted_traced):
    _, res, jsonl, _ = faulted_traced
    phases = per_phase_time(load_jsonl(jsonl)["spans"])
    assert set(phases) >= {"ack", "data"}
    assert all(v["dur"] > 0 for v in phases.values())


def test_inspect_cli_renders_report(faulted_traced):
    _, _, jsonl, _ = faulted_traced
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.inspect", str(jsonl)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "per-phase simulation time" in out
    assert "wall-clock profiling" in out
    assert "per-radio energy" in out
    assert "failed poll requests" in out


def test_summarize_inline_matches_cli_sections(faulted_traced):
    _, _, jsonl, _ = faulted_traced
    report = summarize(load_jsonl(jsonl))
    assert "routing.solve" in report  # profiled solver shows up
    assert "head" in report  # per-radio energy labels the head


def test_ambient_use_scope_traces_without_config_flag():
    tel = obs.Telemetry()
    with obs.use(tel):
        res = run_polling_simulation(
            PollingSimConfig(n_sensors=12, n_cycles=2, seed=1)
        )
    assert res.telemetry is tel
    assert tel.spans_of("run") and tel.spans_of("cycle")
    assert tel.metrics.counter("polling.delivered").value > 0

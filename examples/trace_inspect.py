"""Telemetry end to end: trace a faulted run, export it, inspect it.

Runs a seeded 30-sensor cluster with a relay crash under a live telemetry
collector, then walks the whole observability pipeline:

1. the run produces a span tree (run -> cycle -> phase -> request) plus
   blacklist and re-plan events and per-cycle metric snapshots;
2. the trace is exported to JSONL (the repo's native format) and to a
   Chrome trace loadable in chrome://tracing or Perfetto;
3. the failed deliveries are traced back to their poll requests —
   request span -> retry events -> blacklist -> re-plan event;
4. the inspect CLI renders the same trace as a human-readable report.

Run:  python examples/trace_inspect.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from repro.faults import FaultPlan, NodeCrash
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.obs import Telemetry, export_chrome_trace, export_jsonl, load_jsonl, use
from repro.obs.inspect import failure_chains

# --- pick a victim relay from a fault-free reference run ----------------------
baseline = run_polling_simulation(PollingSimConfig(n_sensors=30, n_cycles=8, seed=3))
paths = baseline.mac.routing.routing_plan().paths
victim = min(n for p in paths.values() for n in p[1:-1] if n >= 0)
print(f"tracing a run that kills relay s{victim} at t=20.3 s\n")

# --- the traced, faulted run --------------------------------------------------
plan = FaultPlan(crashes=[NodeCrash(node=victim, at=20.3)])
with use(Telemetry()) as tel:
    run_polling_simulation(
        PollingSimConfig(n_sensors=30, n_cycles=8, seed=3, fault_plan=plan)
    )
print(f"collected {len(tel.spans)} spans, {len(tel.timeline)} timeline events, "
      f"{len(tel.cycle_snapshots)} cycle snapshots")
print(f"metrics: delivered={tel.metrics.counter('polling.delivered').value}, "
      f"retries={tel.metrics.counter('polling.retries').value}, "
      f"repairs={tel.metrics.counter('mac.route_repairs').value}")

# --- export -------------------------------------------------------------------
out = Path(tempfile.mkdtemp(prefix="trace_inspect_"))
jsonl = export_jsonl(tel, out / "run.jsonl")
chrome = export_chrome_trace(tel, out / "run.trace.json")
print(f"\nwrote {jsonl}")
print(f"wrote {chrome}  (open in chrome://tracing or ui.perfetto.dev)")

# --- causal chains of the failed deliveries -----------------------------------
chains = failure_chains(load_jsonl(jsonl))
print(f"\n{len(chains)} poll requests failed; the first, end to end:")
chain = chains[0]
req = chain["request"]
print(f"  request span #{req['span_id']} polled sensor s{chain['sensor']} "
      f"along {req['attrs']['path']}")
for ev in chain["events"]:
    print(f"    sim-time  {ev['time']:>7.3f}  {ev['name']}")
for ev in chain["blacklist"]:
    print(f"    sim-time  {ev['time']:>7.3f}  head blacklists "
          f"s{ev['attrs']['sensor']} after {ev['attrs']['misses']} misses")
for ev in chain["repairs"]:
    print(f"    sim-time  {ev['time']:>7.3f}  {ev['attrs']['cause']} re-plan "
          f"re-routes around {ev['attrs']['excluded']}")
assert chain["blacklist"] and chain["repairs"], "chain must reach the re-plan"

# --- the inspect CLI on the same file -----------------------------------------
print("\n--- python -m repro.obs.inspect", jsonl.name, "---")
report = subprocess.run(
    [sys.executable, "-m", "repro.obs.inspect", str(jsonl), "--top", "5"],
    capture_output=True,
    text=True,
    check=True,
)
print(report.stdout)
print("every failed delivery above traces to its originating poll request.")

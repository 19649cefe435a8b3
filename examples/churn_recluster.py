"""Dynamic-network robustness: churn, mobility, and online re-clustering.

A seeded 24-sensor cluster suffers a realistic dynamic workload — two new
sensors power up mid-run, two announced departures pull nodes out, and
every survivor drifts at 0.4 m/s — and the run is repeated under three
re-cluster policies, each a re-form trigger for the MAC:

* ``off``       — no trigger, the reactive baseline: announced leaves are repaired
  around, but joiners sit dark forever and routing is never re-planned
  from the moved positions;
* ``staleness`` — the head re-forms the cluster when its staleness trigger
  fires (membership changed, repeated repair fallbacks, overload);
* ``periodic``  — the head re-forms every 3 cycles no matter what.

Same fault plan, same seed, same detector — only the re-form policy
differs.  The table shows what keeping the plan fresh buys (joiners
served, higher coverage) and what it costs (re-form passes, roster
announcement bytes on the air).

Run:  python examples/churn_recluster.py
"""

from repro.faults import FaultPlan, Mobility, NodeJoin, NodeLeave
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.topology import StalenessTrigger

plan = FaultPlan(
    joins=[
        NodeJoin(at=18.0, position=(60.0, 150.0)),
        NodeJoin(at=43.0, position=(140.0, 45.0)),
    ],
    leaves=[NodeLeave(node=4, at=27.0), NodeLeave(node=11, at=55.0)],
    mobility=Mobility(speed_mps=0.4),
)

POLICIES = {
    "off": None,
    "staleness": StalenessTrigger(),
    "periodic": StalenessTrigger(membership_delta=0, repair_fallbacks=0, period_cycles=3),
}

print("2 joins, 2 announced leaves, 0.4 m/s drift; 24 sensors, 12 cycles")
print(f"{'policy':<10} {'delivered':>9} {'reclusters':>10} {'joins adm':>9} "
      f"{'coverage':>8} {'plan age':>8} {'announce B':>10}")
results = {}
for name, trigger in POLICIES.items():
    res = run_polling_simulation(
        PollingSimConfig(
            n_sensors=24, n_cycles=12, seed=7, fault_plan=plan, recluster=trigger
        )
    )
    results[name] = res
    s = res.staleness
    ought = s.present_final + (s.joins_powered - s.joins_admitted)
    coverage = s.served_final / ought if ought else 1.0
    print(f"{name:<10} {res.packets_delivered:>9} {s.reclusters:>10} "
          f"{s.joins_admitted:>9} {coverage:>8.3f} {s.mean_plan_age_cycles:>8.2f} "
          f"{s.reform_announce_bytes:>10}")

stale = results["staleness"].staleness
for r in results["staleness"].mac.replans:
    if r.cause == "recluster":
        print(f"  t={r.time:>5.1f} s  re-form ({r.reason}): "
              f"admitted {list(r.admitted)}, excluded {len(r.excluded)}, "
              f"{r.roster_bytes} roster bytes")

assert results["off"].staleness.joins_admitted == 0
assert stale.joins_admitted == 2
assert stale.reclusters >= 1
assert results["staleness"].violations == []
print("\njoiners were admitted, departures repaired, and the plan kept fresh.")

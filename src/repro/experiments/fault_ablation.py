"""Fault ablation: how gracefully does the polling cluster degrade?

Not a paper figure — the paper assumes loss but not death.  This bench
sweeps fault regimes over the same seeded cluster and reports the
graceful-degradation metrics next to the paper's throughput numbers:

* ``none``        — the untouched baseline (sanity anchor: ratio 1.0);
* ``crash-1``     — one routing relay killed mid-run;
* ``crash-2``     — two relays killed, staggered;
* ``stun``        — a relay stunned for two full cycles, then back;
* ``battery``     — a relay given a tiny battery that dies under load;
* ``bursty``      — Gilbert–Elliott bursty loss on every link, no deaths;
* ``bursty-K6``   — same loss, suspicion threshold raised from 2 to 6
  cycles (a loss burst must outlast K cycles to fake a death, so K is
  the detector's burst-tolerance knob).

Every regime runs twice: reactive (``k=0``, recovery waits for the
duty-cycle-boundary route repair) and proactive (``k=1``, one node-disjoint
backup path per sensor for in-cycle failover).  The availability columns —
median time-to-recover in cycles, delivery continuity, failover/repair
counts — are where the two separate: same topology, same faults, same
detector, different recovery latency.

Run it::

    python -m repro.experiments.fault_ablation
"""

from __future__ import annotations

from dataclasses import replace

from ..faults import BatteryDepletion, BurstyLinks, FaultPlan, NodeCrash, TransientStun
from ..net.cluster_sim import PollingSimConfig, run_polling_simulation
from ..routing import compute_backup_routes
from ..routing.minmax import FlowSolution
from .common import print_table

__all__ = ["run", "main"]


def _relays_of(solution: FlowSolution) -> tuple[list[int], int | None]:
    """The relays min-max routing *solution* uses, plus one *survivable*
    relay: a relay every downstream sensor of which has a node-disjoint
    backup, so an in-cycle failover can actually absorb its death."""
    plan = solution.routing_plan()
    relays = sorted({n for p in plan.paths.values() for n in p[1:-1] if n >= 0})
    if not relays:
        raise RuntimeError("deployment has no multi-hop relays; pick another seed")
    routes = compute_backup_routes(solution, k=1)
    backed = None
    for r in relays:
        downstream = [
            s
            for s, bundles in solution.flow_paths.items()
            if s != r and any(r in p[1:-1] for p, _ in bundles)
        ]
        if downstream and all(
            any(r not in bp for bp in routes.paths_for(s)) for s in downstream
        ):
            backed = r
            break
    return relays, backed


def _plans(
    config: PollingSimConfig, solution: FlowSolution
) -> dict[str, FaultPlan | None]:
    """The faulted regimes, aimed at the relays of the fault-free *solution*."""
    relays, backed = _relays_of(solution)
    mid = config.n_cycles // 2 * config.cycle_length + 0.3  # mid data phase
    r0 = relays[0]
    r1 = relays[len(relays) // 2]
    plans: dict[str, FaultPlan | None] = {
        "crash-1": FaultPlan(crashes=[NodeCrash(node=r0, at=mid)]),
        # a relay whose whole downstream has disjoint backups, killed in
        # the sleep phase (nothing in flight to mask the outage): the
        # regime where proactive failover (k>=1) fully absorbs the death
        # while reactive recovery waits out detection + boundary repair
        "crash-b": None
        if backed is None
        else FaultPlan(
            crashes=[
                NodeCrash(
                    node=backed,
                    at=(config.n_cycles // 2 + 0.55) * config.cycle_length,
                )
            ]
        ),
        "crash-2": FaultPlan(
            crashes=[
                NodeCrash(node=r0, at=mid),
                NodeCrash(node=r1, at=mid + 2 * config.cycle_length),
            ]
        ),
        "stun": FaultPlan(
            stuns=[TransientStun(node=r0, at=mid, duration=2 * config.cycle_length)]
        ),
        "battery": FaultPlan(batteries=[BatteryDepletion(node=r0, capacity_j=0.02)]),
        "bursty": FaultPlan(bursty_links=BurstyLinks()),
        "bursty-K6": FaultPlan(bursty_links=BurstyLinks()),
    }
    if backed is None:
        del plans["crash-b"]  # topology offers no fully-backed-up relay
    return plans


def _trial(
    config: PollingSimConfig, name: str, plan: FaultPlan | None, k: int
) -> tuple[dict, FlowSolution]:
    """One row: *config*'s cluster under fault *plan* with *k* backup paths.
    Also returns the routing the run planned."""
    res = run_polling_simulation(
        replace(
            config,
            fault_plan=plan,
            dead_after_misses=6 if name.endswith("K6") else 2,
            backup_k=k,
        )
    )
    deg = res.degradation
    avail = res.availability
    ttr = avail.median_ttr_cycles
    row = {
        "faults": name,
        "k": k,
        "delivered": deg.delivered,
        "failed": deg.failed,
        "delivery_ratio": deg.delivery_ratio,
        "coverage": deg.surviving_coverage,
        "dead_true": len(deg.dead_true),
        "blacklisted": len(deg.blacklisted),
        "false_pos": len(deg.false_positives),
        "stranded": deg.stranded_packets,
        "repairs": deg.route_repairs,
        "failovers": avail.in_cycle_failovers,
        "ttr_cycles": ttr if ttr != float("inf") else -1.0,
        "continuity": avail.continuity,
    }
    return row, res.mac.routing


def run(
    n_sensors: int = 30,
    n_cycles: int = 12,
    seed: int = 3,
    backup_ks: tuple[int, ...] = (0, 1),
    engine: str = "vector",
) -> list[dict]:
    config = PollingSimConfig(
        n_sensors=n_sensors, n_cycles=n_cycles, seed=seed, engine=engine
    )
    rows: list[dict] = []
    routing = None
    for k in backup_ks:
        row, solution = _trial(config, "none", None, k)
        rows.append(row)
        if routing is None:
            routing = solution  # the fault-free plan the faults aim at
    for name, plan in _plans(config, routing).items():
        rows += [_trial(config, name, plan, k)[0] for k in backup_ks]
    return rows


def main() -> None:
    rows = run()
    print_table(
        "Fault ablation: graceful degradation & recovery latency "
        "(30 sensors, 12 cycles; k = backup paths, ttr -1 = never recovered)",
        rows,
    )


if __name__ == "__main__":
    main()

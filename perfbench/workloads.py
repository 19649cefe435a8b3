"""The benchmark's three workloads: inputs from the seed, trials, output digests.

Every workload is a sweep the runner executes: a *cold* pass computes the
trials into a fresh sweep cache, a *warm* pass re-runs the same trials and
is served entirely from that cache.  The library only ever receives the
inputs generated here from the workload seed.

One *operation* is one simulation run: one ``fig4_sweep`` grid point, one
field run, or one ``fault_ablation`` trial.  Each operation yields the
simulated statistics its digest covers; host times never enter a digest.
Neither do ``events_processed`` and the vector/scalar split of the slots:
they are engine statistics (the vector engine replays a slot without
dispatching its events), which a faster engine is meant to move, so they are
reported as exact per-layer counts instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

DEFAULT_SEED = 2005
"""The seed whose outputs are recorded in ``digests.json`` for every workload
(the paper's year; chosen to stay clear of small ad-hoc seeds)."""

FIELD_SEED = 1
"""``MultiClusterConfig.seed`` of the field-mobile deployment.  The field
(sensor and head layout, mobility, traffic) is fixed; the workload seed picks
which head crashes and when.  The crash falls in cycle 6 of 8 (30.5-36 s), late
enough that every seed does a comparable amount of work (+-6% slots) and early
enough that detection, adoption and handoffs still run."""

CLUSTER_DEPLOYMENT_SEEDS = (4, 5, 8, 9, 11, 15, 16, 17, 22, 23, 24, 25, 29, 32, 35, 38, 43)
"""``fig4_sweep`` deployment seeds the cluster-static workload seed draws from:
the seeds in 0..47 whose sweep (80 sensors, 10/20/40 Bps, 12 cycles) simulates
16,205-16,931 slots, within 2.2% of the median.  Over all of 0..47 the count
ranges from 14,474 to 18,480, and a pass's time follows it, so drawing from
the whole range made the seed, not the code, set most of ``wall_s``."""

DEFAULT_TRIAL_SEEDS = (4, 1, 2, 9)
"""``fault_ablation`` seeds of the default campaign.  Seed 4 records the known
``mac.delivery-duplicate`` violation on its ``bursty-K6`` plan at k=0, so the
baseline ``failed_frac`` counts it."""

CLEAN_TRIAL_SEEDS = (1, 2, 9, 10, 11, 15, 17, 18, 20, 23)
"""The trial seeds non-default workload seeds draw from: ``fault_ablation``
seeds in 0..23 that record no invariant violation at 30 sensors and 8 cycles
(4, 6, 7, 12, 16, 19, 21 and 22 record ``mac.delivery-duplicate``) and whose
trial takes 5.8-6.7 s of CPU on the reference host, so every draw of four
does comparable work.  Each has a stored digest."""

WORKLOADS = ("cluster-static", "field-mobile", "campaign-faults")

WHY = {
    "cluster-static": (
        "fig4-scale sweep: the scheduler and the batch slot engine do nearly "
        "all the work; the scalar PHY, faults, repair and the runner sit idle"
    ),
    "field-mobile": (
        "multi-cluster field with mobility, handoff and a head crash: the "
        "shared-medium scalar PHY does the work, the scheduler is light"
    ),
    "campaign-faults": (
        "fault-ablation sweep with the campaign feed on: fault draws, routing "
        "repair, invariant checks, telemetry summaries, feed fsyncs and the cache"
    ),
}


@dataclass(frozen=True)
class Plan:
    """What one workload seed expands to: the trials and how to sweep them."""

    workload: str
    seed: int
    trials: list  # list[repro.experiments.runner.Trial]
    processes: int | None
    feed: bool  # stream the campaign feed (turns on per-trial summaries)
    ops_per_pass: int


def _rng(seed: int, workload: str) -> np.random.Generator:
    salt = WORKLOADS.index(workload)
    return np.random.default_rng([seed, salt])


def plan(workload: str, seed: int) -> Plan:
    """Generate the workload's inputs from *seed* (same seed, same inputs)."""
    from repro.experiments.runner import Trial

    rng = _rng(seed, workload)
    if workload == "cluster-static":
        trial = Trial(
            "fig4_sweep",
            {
                "rates": [10.0, 20.0, 40.0],
                "n_sensors": 80,
                "n_cycles": 12,
                "seed": int(rng.choice(CLUSTER_DEPLOYMENT_SEEDS)),
                "engine": "vector",
                "reuse_solver": True,
            },
        )
        return Plan(workload, seed, [trial], None, False, len(trial.kwargs["rates"]))
    if workload == "field-mobile":
        trial = Trial(
            "perfbench.workloads:field_mobile",
            {
                "crash_head": int(rng.integers(0, 4)),
                "crash_at": round(float(rng.uniform(30.5, 36.0)), 3),
            },
        )
        return Plan(workload, seed, [trial], None, False, 1)
    if workload == "campaign-faults":
        if seed == DEFAULT_SEED:
            seeds = DEFAULT_TRIAL_SEEDS
        else:
            seeds = tuple(int(s) for s in rng.choice(CLEAN_TRIAL_SEEDS, 4, replace=False))
        trials = [
            Trial("fault_ablation", {"seed": s, "n_sensors": 30, "n_cycles": 8})
            for s in seeds
        ]
        return Plan(workload, seed, trials, min(2, os.cpu_count() or 1), True, len(trials))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _energies(transceivers) -> list[float]:
    return [float(trx.meter.consumed_j) for trx in transceivers]


def cluster_stats(res) -> dict[str, Any]:
    """Statistics of one single-cluster run (a fig4 grid point)."""
    mac = res.mac
    return {
        "generated": res.packets_generated,
        "delivered": res.packets_delivered,
        "failed": mac.packets_failed,
        "energy_j": _energies(res.phy.transceivers),
        "collisions": res.phy.tracer.counts.get("phy_rx_collision", 0),
        "violations": len(res.violations),
        "engine": {
            "events": res.phy.sim.events_processed,
            "vector_slots": mac.vector_slots,
            "scalar_slots": mac.scalar_slots,
        },
    }


def field_mobile(crash_head: int, crash_at: float) -> dict[str, Any]:
    """One field-mobile run; returns its statistics.

    Resolved by the sweep runner as ``perfbench.workloads:field_mobile``.
    """
    from repro import validate
    from repro.net.multicluster_sim import MultiClusterConfig, run_multicluster_simulation

    mark = validate.MONITOR.mark()
    res = run_multicluster_simulation(
        MultiClusterConfig(
            n_sensors=120,
            n_heads=4,
            field_m=420.0,
            n_cycles=8,
            seed=FIELD_SEED,
            mobility_speed_mps=2.0,
            handoff="staleness",
            head_failover=True,
            head_crashes=((crash_head, crash_at),),
        )
    )
    violations = len(validate.MONITOR.since(mark))
    radios: dict[int, Any] = {}
    for mac in res.macs:
        for trx in mac.phy.transceivers:
            radios.setdefault(id(trx), trx)  # adopted radios sit in two PHYs
    return {
        "generated": res.packets_generated,
        "delivered": res.packets_delivered,
        "failed": res.packets_failed,
        "energy_j": _energies(radios.values()),
        "collisions": res.collisions,
        "handoffs": len(res.handoff_events),
        "violations": violations,
        "engine": {
            "events": res.macs[0].phy.sim.events_processed,
            "vector_slots": sum(m.vector_slots for m in res.macs),
            "scalar_slots": sum(m.scalar_slots for m in res.macs),
        },
    }


def digest(stats: Any) -> str:
    """SHA-256 of the canonical JSON of the simulated statistics in *stats*
    (floats at full precision): the engine counters are replaced by the
    total number of slots, which every engine simulates alike."""
    if isinstance(stats, dict):
        engine = stats["engine"]
        stats = {k: v for k, v in stats.items() if k != "engine"}
        stats["slots"] = engine["vector_slots"] + engine["scalar_slots"]
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def sane(stats: Any) -> bool:
    """Invariants every operation's output must satisfy, on any seed."""
    if isinstance(stats, list):  # fault_ablation rows
        return bool(stats) and all(
            row["delivered"] >= 0 and row["failed"] >= 0 and 0.0 <= row["coverage"] <= 1.0
            for row in stats
        )
    engine = stats["engine"]
    return (
        0 < stats["delivered"] <= stats["generated"]
        and engine["events"] > 0
        and engine["vector_slots"] + engine["scalar_slots"] > 0
        and all(math.isfinite(e) and e > 0.0 for e in stats["energy_j"])
    )

"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the decisions the paper makes
without measurement:

* ``greedy_vs_optimal`` — how far the Table-1 greedy schedule is from the
  exact optimum on small random clusters (the paper justifies greedy by
  NP-hardness alone);
* ``m_sensitivity`` — polling time vs the probing budget M (more probed
  concurrency, shorter schedules, exponentially more probing);
* ``sector_rules`` — the three pairing rules switched off one at a time;
* ``routing_minmax_vs_shortest`` — min-max-load flow routing vs naive
  BFS shortest paths, in max sensor load and polling time;
* ``scan_order`` — the "arbitrarily predetermined order" choice;
* ``delay_vs_nodelay`` — exact optimal with and without packet delay
  (Thm. 2 says delay buys nothing on TSRFs).
"""

from __future__ import annotations

import numpy as np

from ..core.ack import bfs_path_to_head
from ..core.online import OnlinePollingScheduler
from ..core.optimal import solve_optimal
from ..core.sectors import PairingRules
from ..hardness.tsrfp import tsrfp_from_graph
from ..hardness.hamiltonian import random_graph
from ..mac.base import geometric_oracle
from ..metrics.lifetime import evaluate_lifetime_ratio
from ..routing.minmax import solve_min_max_load
from ..routing.paths import RoutingPlan
from ..topology.cluster import Cluster
from ..topology.deployment import uniform_square
from .common import print_table

__all__ = [
    "greedy_vs_optimal",
    "m_sensitivity",
    "sector_rules",
    "routing_minmax_vs_shortest",
    "scan_order",
    "delay_vs_nodelay",
    "protocol_model_vs_physical",
    "shadowing_discovery",
    "energy_aware_routing",
    "main",
]


def _small_cluster(n: int, seed: int, packets_high: int = 2):
    dep = uniform_square(n, seed=seed, side=110.0, comm_range=45.0)
    geo = Cluster.from_deployment(dep)
    oracle, cluster = geometric_oracle(geo, sensor_range_m=45.0)
    rng = np.random.default_rng(seed)
    packets = rng.integers(0, packets_high + 1, size=n)
    if packets.sum() == 0:
        packets[0] = 1
    cluster = cluster.with_packets(packets)
    return cluster, oracle


def greedy_vs_optimal(
    n_sensors: int = 6, seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
) -> list[dict]:
    rows = []
    for seed in seeds:
        cluster, oracle = _small_cluster(n_sensors, seed)
        plan = solve_min_max_load(cluster).routing_plan()
        greedy = OnlinePollingScheduler.poll(plan, oracle)
        optimal = solve_optimal(plan, oracle, max_requests=14)
        rows.append(
            {
                "seed": seed,
                "packets": int(cluster.total_packets),
                "greedy_slots": greedy.makespan,
                "optimal_slots": optimal.makespan,
                "ratio": greedy.makespan / optimal.makespan if optimal.makespan else 1.0,
            }
        )
    return rows


def m_sensitivity(
    n_sensors: int = 30, seed: int = 0, ms: tuple[int, ...] = (1, 2, 3)
) -> list[dict]:
    from ..interference.probing import probe_cost

    rows = []
    for m in ms:
        dep = uniform_square(n_sensors, seed=seed)
        geo = Cluster.from_deployment(dep)
        oracle, cluster = geometric_oracle(geo, max_group_size=m)
        plan = solve_min_max_load(cluster).routing_plan()
        result = OnlinePollingScheduler.poll(plan, oracle)
        n_links = len(plan.used_links())
        rows.append(
            {
                "M": m,
                "polling_slots": result.makespan,
                "probe_groups": probe_cost(n_links, m),
            }
        )
    return rows


def sector_rules(n_sensors: int = 30, seeds: tuple[int, ...] = (0, 1, 2)) -> list[dict]:
    configs = {
        "all rules": PairingRules(),
        "no link rule": PairingRules(require_link=False),
        "no size rule": PairingRules(big_with_small=False),
        "no pipeline rule": PairingRules(require_pipeline_compat=False),
    }
    rows = []
    for label, rules in configs.items():
        ratios = [
            evaluate_lifetime_ratio(n_sensors=n_sensors, seed=s, rules=rules).lifetime_ratio
            for s in seeds
        ]
        rows.append({"rules": label, "lifetime_ratio": sum(ratios) / len(ratios)})
    return rows


def routing_minmax_vs_shortest(
    n_sensors: int = 30, seeds: tuple[int, ...] = (0, 1, 2)
) -> list[dict]:
    rows = []
    for seed in seeds:
        dep = uniform_square(n_sensors, seed=seed)
        geo = Cluster.from_deployment(dep)
        oracle, cluster = geometric_oracle(geo)
        # min-max flow routing
        flow_plan = solve_min_max_load(cluster).routing_plan()
        flow_poll = OnlinePollingScheduler.poll(flow_plan, oracle)
        # naive BFS shortest paths
        bfs_plan = RoutingPlan(
            cluster=cluster,
            paths={s: bfs_path_to_head(cluster, s) for s in range(n_sensors)},
        )
        bfs_poll = OnlinePollingScheduler.poll(bfs_plan, oracle)
        rows.append(
            {
                "seed": seed,
                "minmax_max_load": int(flow_plan.loads().max()),
                "bfs_max_load": int(bfs_plan.loads().max()),
                "minmax_slots": flow_poll.makespan,
                "bfs_slots": bfs_poll.makespan,
            }
        )
    return rows


def scan_order(n_sensors: int = 30, seeds: tuple[int, ...] = (0, 1, 2)) -> list[dict]:
    rows = []
    for order in ("index", "deep-first", "shallow-first"):
        slots = []
        for seed in seeds:
            dep = uniform_square(n_sensors, seed=seed)
            geo = Cluster.from_deployment(dep)
            oracle, cluster = geometric_oracle(geo)
            plan = solve_min_max_load(cluster).routing_plan()
            slots.append(OnlinePollingScheduler.poll(plan, oracle, order=order).makespan)
        rows.append({"order": order, "mean_slots": sum(slots) / len(slots)})
    return rows


def delay_vs_nodelay(
    n_vertices: int = 4, seeds: tuple[int, ...] = (0, 1, 2, 3)
) -> list[dict]:
    rows = []
    for seed in seeds:
        adj = random_graph(n_vertices, 0.5, seed=seed)
        inst = tsrfp_from_graph(adj)
        plan = inst.routing_plan()
        nodelay = solve_optimal(plan, inst.oracle, allow_delay=False)
        delayed = solve_optimal(plan, inst.oracle, allow_delay=True)
        rows.append(
            {
                "seed": seed,
                "nodelay_slots": nodelay.makespan,
                "delay_slots": delayed.makespan,
                "delay_helps": delayed.makespan < nodelay.makespan,
            }
        )
    return rows


def protocol_model_vs_physical(
    n_sensors: int = 25, seeds: tuple[int, ...] = (0, 1, 2), delta: float = 0.5
) -> list[dict]:
    """Sec. III-B's warning, measured: schedule with the disc-and-pairwise
    protocol model, then check every slot against the additive-SINR truth.
    Groups the protocol model approves can fail physically (accumulated
    interference / non-disc gain); the probed physical oracle never does."""
    from ..interference.protocol import ProtocolModelOracle

    rows = []
    for seed in seeds:
        dep = uniform_square(n_sensors, seed=seed)
        geo = Cluster.from_deployment(dep)
        truth, cluster = geometric_oracle(geo, max_group_size=3)
        plan = solve_min_max_load(cluster).routing_plan()

        def violating_slots(oracle) -> tuple[int, int]:
            result = OnlinePollingScheduler.poll(plan, oracle)
            bad = 0
            for group in result.schedule.slots:
                if len(group) >= 2 and not truth.compatible(
                    [tx.link for tx in group]
                ):
                    bad += 1
            return bad, result.schedule.n_slots

        protocol = ProtocolModelOracle(cluster, delta=delta, max_group_size=3)
        bad_protocol, slots_protocol = violating_slots(protocol)
        bad_physical, slots_physical = violating_slots(truth)
        rows.append(
            {
                "seed": seed,
                "protocol_bad_slots": bad_protocol,
                "protocol_slots": slots_protocol,
                "physical_bad_slots": bad_physical,
                "physical_slots": slots_physical,
            }
        )
    return rows


def shadowing_discovery(
    n_sensors: int = 25, seeds: tuple[int, ...] = (0, 1, 2), sigma_db: float = 6.0
) -> list[dict]:
    """Sec. III-B's other warning: under log-normal shadowing the coverage
    area is not a disc, so geometry-assumed links and radio-discovered
    links disagree — routing must use what probing finds (Sec. V-B)."""
    from ..mac.base import GROUND_SENSOR_PROPAGATION
    from ..radio.propagation import LogNormalShadowing

    rows = []
    for seed in seeds:
        dep = uniform_square(n_sensors, seed=seed)
        geo = Cluster.from_deployment(dep)
        shadow = LogNormalShadowing(
            reference=GROUND_SENSOR_PROPAGATION, sigma_db=sigma_db, seed=seed
        )
        oracle, discovered = geometric_oracle(geo, propagation=shadow)
        assumed = geo.hears
        found = discovered.hears
        broken = int((assumed & ~found).sum())  # disc says yes, radio says no
        gained = int((~assumed & found).sum())  # disc says no, radio says yes
        deliverable = discovered.is_connected()
        slots = None
        if deliverable:
            plan = solve_min_max_load(discovered).routing_plan()
            slots = OnlinePollingScheduler.poll(plan, oracle).slots_elapsed
        rows.append(
            {
                "seed": seed,
                "assumed_links": int(assumed.sum()),
                "broken_by_fading": broken,
                "gained_by_fading": gained,
                "still_deliverable": deliverable,
                "polling_slots": slots if slots is not None else "-",
            }
        )
    return rows


def energy_aware_routing(
    n_sensors: int = 25, seeds: tuple[int, ...] = (0, 1, 2)
) -> list[dict]:
    """The Sec. III-A energy-aware variant: sensors with depleted batteries
    get proportionally less relaying; the min-max *normalized* load drops
    and the weakest sensor's drain slows."""
    rows = []
    for seed in seeds:
        dep = uniform_square(n_sensors, seed=seed)
        geo = Cluster.from_deployment(dep)
        oracle, cluster = geometric_oracle(geo)
        rng = np.random.default_rng(seed)
        # batteries between 30% and 100%
        cluster.energy[:] = rng.uniform(0.3, 1.0, size=n_sensors)
        uniform = solve_min_max_load(cluster, energy_aware=False)
        aware = solve_min_max_load(cluster, energy_aware=True)
        norm_uniform = float(max(uniform.loads / cluster.energy))
        norm_aware = float(max(aware.loads / cluster.energy))
        rows.append(
            {
                "seed": seed,
                "uniform_max_normload": round(norm_uniform, 2),
                "aware_max_normload": round(norm_aware, 2),
                "improvement": round(norm_uniform / norm_aware, 2)
                if norm_aware
                else float("inf"),
            }
        )
    return rows


def main() -> None:
    print_table("Ablation: greedy vs optimal makespan", greedy_vs_optimal())
    print_table("Ablation: probing budget M", m_sensitivity())
    print_table("Ablation: sector pairing rules", sector_rules())
    print_table("Ablation: min-max flow vs BFS routing", routing_minmax_vs_shortest())
    print_table("Ablation: request scan order", scan_order())
    print_table("Ablation: packet delay (Thm. 2)", delay_vs_nodelay())
    print_table(
        "Ablation: protocol model vs physical truth (Sec. III-B)",
        protocol_model_vs_physical(),
    )
    print_table(
        "Ablation: shadowing vs disc coverage (Sec. III-B / V-B)",
        shadowing_discovery(),
    )
    print_table(
        "Ablation: energy-aware routing (Sec. III-A variant)",
        energy_aware_routing(),
    )


if __name__ == "__main__":
    main()

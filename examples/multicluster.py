"""The second layer: many clusters, Voronoi forming, channels, tokens.

Deploys 120 sensors and 6 cluster heads over a 500 m field, forms clusters
by Voronoi cells (Sec. V-A), discovers members hop by hop, routes each
cluster, estimates each duty cycle's length with the real polling
scheduler, and then compares the two inter-cluster coordination schemes of
Sec. V-G: token rotation vs channel coloring.  The event-driven comparison
at the end runs all three coordination modes on one shared radio medium,
where the coloring reads which clusters hear each other.

Run:  python examples/multicluster.py
"""

import numpy as np

from repro import solve_min_max_load
from repro.core import OnlinePollingScheduler
from repro.mac import SENSOR_RANGE_M, MacTimings, geometric_oracle
from repro.net import TokenSchedule, concurrency_gain
from repro.radio import BITRATE_BPS, DEFAULT_SIZES
from repro.topology import bfs_discover, form_clusters
from repro.sim import RngStreams

FIELD = 500.0
N_SENSORS = 120
HEAD_POSITIONS = np.array(
    [[110, 120], [360, 110], [120, 360], [390, 380], [250, 240], [430, 250]],
    dtype=float,
)


def main() -> None:
    rng = RngStreams(11).get("field")
    sensors = rng.uniform(0, FIELD, size=(N_SENSORS, 2))
    net = form_clusters(sensors, HEAD_POSITIONS, comm_range=SENSOR_RANGE_M)
    print(f"{net.n_clusters} clusters over a {FIELD:.0f} m field:")

    timings = MacTimings()
    slot = timings.poll_slot_time(BITRATE_BPS, DEFAULT_SIZES, DEFAULT_SIZES.data)
    duties: list[float] = []
    for k, cluster in enumerate(net.clusters):
        if cluster.n_sensors == 0 or not cluster.is_connected():
            # Strays out of range of their nearest head would join another
            # cluster in a real deployment; report and skip.
            reachable = int(cluster.min_hop_counts()[np.isfinite(cluster.min_hop_counts())].size)
            print(f"  cluster {k}: {cluster.n_sensors} members, "
                  f"{reachable} reachable — skipping unreachable strays")
        discovery = bfs_discover(cluster)
        reachable_members = discovery.discovered
        if not reachable_members:
            duties.append(0.0)
            continue
        packets = np.zeros(cluster.n_sensors, dtype=np.int64)
        packets[reachable_members] = 1
        sub = cluster.with_packets(packets)
        oracle, sub = geometric_oracle(sub, sensor_range_m=SENSOR_RANGE_M)
        plan = solve_min_max_load(sub).routing_plan()
        result = OnlinePollingScheduler.poll(plan, oracle)
        duty = result.slots_elapsed * slot
        duties.append(duty)
        print(f"  cluster {k}: {len(reachable_members):3d} sensors, "
              f"max hop {plan.max_hop_count()}, polling {result.slots_elapsed:3d} slots "
              f"= {duty*1000:6.1f} ms")

    # --- token rotation (simple, serial) ---------------------------------------
    token = TokenSchedule(duty_durations=duties, handoff_cost=0.002)
    print(f"\ntoken rotation: period {token.period*1000:.1f} ms, "
          f"utilization {100*token.utilization():.0f}%")
    for k, (a, b) in enumerate(token.windows()):
        print(f"  cluster {k} window: {a*1000:7.1f} .. {b*1000:7.1f} ms")

    # --- channel coloring (concurrent) ------------------------------------------
    gain = concurrency_gain(duties)
    print(f"\nchannel coloring lets all clusters poll concurrently: "
          f"{gain:.1f}x shorter than token rotation")


def des_comparison() -> None:
    """Run all three coordination modes on a real shared medium (Sec. V-G)."""
    from repro.net import MultiClusterConfig, run_multicluster_simulation

    print("\n--- event-driven comparison (3 clusters, shared medium) ---")
    print(f"{'mode':<16} {'delivered':>9} {'failed':>7} {'ratio':>7} {'collisions':>11}")
    for mode in ("uncoordinated", "token", "channels"):
        r = run_multicluster_simulation(
            MultiClusterConfig(mode=mode, n_sensors=45, n_heads=3, n_cycles=4, seed=2)
        )
        print(f"{mode:<16} {r.packets_delivered:>9} {r.packets_failed:>7} "
              f"{r.delivery_ratio:>7.3f} {r.collisions:>11}")
    print(f"channel assignment of the channels run: {r.channels.tolist()} "
          f"-> {int(r.channels.max()) + 1} channels")
    print("uncoordinated clusters jam each other at the borders; either the")
    print("token or the channel coloring removes the loss entirely.")


if __name__ == "__main__":
    main()
    des_comparison()

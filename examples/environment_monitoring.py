"""Environmental monitoring: a full cluster lifecycle on the event-driven stack.

The paper's motivating application is ground-temperature monitoring: cheap
sensors sample slowly, sleep almost always, and a powerful cluster head
collects everything by polling.  This example runs the complete system for
a 40-sensor cluster:

* deploy the field and build the PHY (two-ray ground, 200 kbps);
* discover connectivity from the radio, route with min-max-load flows;
* run 8 duty cycles of CBR traffic through the polling MAC
  (wakeup -> ack set-cover -> slotted pipelined polling -> sleep);
* report throughput, per-state energy, active time, and the sector
  partition the head would use to stretch lifetime further.

Run:  python examples/environment_monitoring.py
"""

import numpy as np

from repro import PathRotator, merge_flow_to_tree, solve_min_max_load
from repro.core import partition_into_sectors
from repro.mac import SENSOR_RANGE_M, geometric_oracle
from repro.metrics import EnergyRateModel, energy_report, evaluate_lifetime_ratio_for_cluster
from repro.net import PollingSimConfig, run_polling_simulation

CONFIG = PollingSimConfig(
    n_sensors=40,
    rate_bps=30.0,  # each sensor ~ one 80-byte reading every 2.7 s
    cycle_length=8.0,
    n_cycles=8,
    seed=7,
)


def main() -> None:
    print(f"deploying {CONFIG.n_sensors} sensors, {CONFIG.rate_bps} Bps each, "
          f"{CONFIG.n_cycles} cycles of {CONFIG.cycle_length}s ...")
    result = run_polling_simulation(CONFIG)

    print(f"\n--- delivery ---")
    print(f"packets generated: {result.packets_generated}")
    print(f"packets delivered: {result.packets_delivered}  "
          f"(throughput ratio {result.throughput_ratio:.3f})")
    print(f"mean sensor active time: {100 * result.mean_active_fraction:.1f}% "
          f"(sensors sleep the rest)")

    print(f"\n--- duty cycles ---")
    for s in result.mac.cycle_stats:
        print(f"  cycle {s.cycle_index}: duty {s.duty_time*1000:7.1f} ms | "
              f"ack slots {s.ack_slots:3d} | data slots {s.data_slots:4d} | "
              f"delivered {s.packets_delivered:3d}")

    report = energy_report(result.phy)
    print(f"\n--- energy (per-sensor means over {result.elapsed:.0f}s) ---")
    print(f"  consumed: {1000 * report.consumed_j.mean():.2f} mJ "
          f"(max {1000 * report.max_sensor_energy_j:.2f} mJ)")
    print(f"  tx time: {report.tx_s.mean()*1000:.1f} ms, "
          f"rx time: {report.rx_s.mean()*1000:.1f} ms, "
          f"sleep: {report.sleep_s.mean():.1f} s")

    # --- what sectoring would buy (Sec. IV) -----------------------------------
    cluster = result.phy.cluster.with_packets(np.ones(CONFIG.n_sensors, dtype=np.int64))
    oracle, cluster = geometric_oracle(cluster, sensor_range_m=SENSOR_RANGE_M)
    life = evaluate_lifetime_ratio_for_cluster(cluster, oracle, model=EnergyRateModel())
    print(f"\n--- sectoring (Sec. IV) ---")
    print(f"  sectors: {life.n_sectors}, whole-cluster polling: "
          f"{life.unsectored_polling_slots} slots, per-sector: {life.sector_polling_slots}")
    print(f"  projected lifetime ratio (sectored / unsectored): {life.lifetime_ratio:.2f}x")
    print("\nsector layout:")
    print(life.partition.describe())


if __name__ == "__main__":
    main()

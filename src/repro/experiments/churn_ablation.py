"""Churn ablation: does online re-clustering pay for itself?

Not a paper figure — the paper's clusters are static.  This bench puts the
same seeded cluster under *dynamic-network* stress (DESIGN.md §11) and
compares three re-cluster policies, each a re-form trigger for the MAC:

* ``off``       — no trigger, the purely reactive machinery: announced
  leaves are repaired around, but joiners are never admitted and routing
  is never re-planned from fresh positions (the degradation baseline);
* ``staleness`` — re-form when the staleness trigger fires (membership
  delta, repeated repair fallbacks, head overload);
* ``periodic``  — re-form on a fixed cadence regardless of observed need.

The grid is churn rate (membership events per cycle) x mobility speed x
policy.  Every policy at one (rate, speed, seed) point sees the *same*
generated churn plan — joins/leaves/trajectories are drawn from the plan
seed before the policy is applied — so the columns differ only by how the
head responds, never by what happened to the network.

The headline column is ``coverage``: served members over members that
*ought* to be served (present survivors plus joiners whose radios powered
up), so a policy that ignores joiners is penalized even though the MAC
never admitted them into its roster.  ``delivered`` counts data packets
that reached the head; ``plan_age`` is the mean age (in cycles) of the
routing plan each cycle executed under.

Each trial loops over its grid point by point and seeds everything from
explicit kwargs, so the sweep is embarrassingly parallel through
:func:`repro.experiments.runner.run_figure` / ``run_sweep`` with cache and
resume for free::

    python -m repro.experiments.churn_ablation
"""

from __future__ import annotations

from ..faults import FaultPlan, Mobility, NodeJoin, NodeLeave
from ..mac.base import SIDE_M
from ..net.cluster_sim import PollingSimConfig, run_polling_simulation
from ..sim.rng import fault_rng
from ..topology.recluster import StalenessTrigger
from .common import print_table

__all__ = ["POLICIES", "churn_plan", "run", "main"]

POLICIES = ("off", "staleness", "periodic")


def churn_plan(
    n_sensors: int,
    n_cycles: int,
    cycle_length: float,
    churn_rate: float,
    mobility_speed: float,
    seed: int,
    side_m: float = SIDE_M,
) -> FaultPlan | None:
    """Draw one deterministic churn plan for a grid point.

    *churn_rate* is the expected number of membership events (joins +
    leaves, split evenly, joins rounding up) over the whole run, per cycle.
    Event times land strictly inside ``[1, n_cycles - 1]`` cycles so every
    event has at least one duty-cycle boundary after it to be reacted to.
    Draws come from the ``(seed, "churn-plan", rate, speed)`` fault
    stream — the plan is a pure function of the grid point, identical for
    every policy that runs it.
    """
    n_events = int(round(churn_rate * n_cycles))
    if n_events <= 0 and mobility_speed <= 0:
        return None
    rng = fault_rng(seed, "churn-plan", churn_rate, mobility_speed)
    n_joins = (n_events + 1) // 2
    n_leaves = min(n_events // 2, n_sensors // 3)
    t_lo, t_hi = cycle_length, (n_cycles - 1) * cycle_length
    joins = tuple(
        NodeJoin(
            at=float(rng.uniform(t_lo, t_hi)),
            position=(float(rng.uniform(0, side_m)), float(rng.uniform(0, side_m))),
        )
        for _ in range(n_joins)
    )
    leave_nodes = rng.choice(n_sensors, size=n_leaves, replace=False)
    leaves = tuple(
        NodeLeave(node=int(node), at=float(rng.uniform(t_lo, t_hi)))
        for node in leave_nodes
    )
    mobility = Mobility(speed_mps=mobility_speed) if mobility_speed > 0 else None
    return FaultPlan(joins=joins, leaves=leaves, mobility=mobility)


def _trigger(policy: str) -> StalenessTrigger | None:
    """The re-form trigger behind each policy name."""
    if policy == "off":
        return None
    if policy == "staleness":
        return StalenessTrigger()
    if policy == "periodic":
        return StalenessTrigger(membership_delta=0, repair_fallbacks=0, period_cycles=3)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def run(
    n_sensors: int = 24,
    n_cycles: int = 10,
    seed: int = 7,
    churn_rates: tuple[float, ...] = (0.0, 0.3, 0.6),
    mobility_speeds: tuple[float, ...] = (0.0, 0.5),
    policies: tuple[str, ...] = POLICIES,
    engine: str = "vector",
) -> list[dict]:
    """One row per (churn rate, mobility speed, policy) grid point.

    The churn-rate loop is outermost so :func:`..runner.run_figure` can
    split it into parallel trials row-for-row identically.
    """
    rows: list[dict] = []
    for rate in churn_rates:
        for speed in mobility_speeds:
            plan = churn_plan(
                n_sensors, n_cycles, 10.0, rate, speed, seed
            )
            for policy in policies:
                cfg = PollingSimConfig(
                    n_sensors=n_sensors,
                    n_cycles=n_cycles,
                    seed=seed,
                    fault_plan=plan,
                    engine=engine,
                    recluster=_trigger(policy),
                )
                res = run_polling_simulation(cfg)
                stale = res.staleness
                avail = res.availability
                # Members that ought to be served: present survivors plus
                # joiners that powered up but were never admitted (under
                # "off" those sit in mac.absent, outside present_final).
                ought = stale.present_final + (
                    stale.joins_powered - stale.joins_admitted
                )
                coverage = stale.served_final / ought if ought else 1.0
                ttr = avail.median_ttr_cycles
                rows.append(
                    {
                        "churn_rate": rate,
                        "mobility": speed,
                        "policy": policy,
                        "delivered": res.packets_delivered,
                        "failed": res.mac.packets_failed,
                        "coverage": coverage,
                        "served": stale.served_final,
                        "ought": ought,
                        "reclusters": stale.reclusters,
                        "repairs": stale.route_repairs,
                        "plan_age": round(stale.mean_plan_age_cycles, 3),
                        "announce_B": stale.reform_announce_bytes,
                        "joins_adm": stale.joins_admitted,
                        "leaves": stale.leaves,
                        "ttr_cycles": ttr if ttr != float("inf") else -1.0,
                        "violations": len(res.violations),
                    }
                )
    return rows


def main() -> None:
    rows = run()
    print_table(
        "Churn ablation: re-cluster policy vs node churn and mobility "
        "(24 sensors, 10 cycles; coverage = served / ought-to-serve)",
        rows,
    )


if __name__ == "__main__":
    main()

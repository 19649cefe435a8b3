"""Degradation accounting under dynamic networks (DESIGN.md §11).

Static-fault metrics (:mod:`.degradation`, :mod:`.availability`) answer
"who died and how fast did we route around them".  Under churn and mobility
the interesting quantities are different: how *old* was the plan each cycle
ran on, what did keeping it fresh cost (re-form announcements on the air,
re-forms themselves), and what fraction of the members that were actually
present ended up served.  :func:`staleness_report` derives all of it from
the MAC's re-plan records (``mac.replans``), its ``cycle_stats`` and end
state, and the injector's ground truth — pure post-processing, no
simulation-time hooks, so computing the report can never perturb a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StalenessReport", "staleness_report"]


@dataclass(frozen=True)
class StalenessReport:
    """Plan staleness, re-cluster cost, and coverage under churn."""

    n_cycles: int
    reclusters: int
    """Re-form passes the head executed (``"recluster"`` re-plans)."""
    recluster_reasons: dict[str, int] = field(default_factory=dict)
    """Re-forms by trigger reason ("membership" / "repairs" / ...)."""
    route_repairs: int = 0
    """Boundary route repairs (includes those folded into re-forms)."""
    mean_plan_age_cycles: float = 0.0
    """Average, over cycles, of how many cycles old the routing plan was
    when the cycle started (0 = planned at this boundary)."""
    max_plan_age_cycles: int = 0
    reform_announce_bytes: int = 0
    """Roster/schedule re-announcement bytes charged to wakeup broadcasts."""
    reform_airtime_s: float = 0.0
    """Air time those announcement bytes cost at the PHY bitrate."""
    joins_planned: int = 0
    """Joins the fault plan scheduled."""
    joins_powered: int = 0
    """Joiners whose radios actually came up during the run."""
    joins_admitted: int = 0
    """Joiners admitted into routing by a re-form (served from then on)."""
    leaves: int = 0
    """Announced departures executed."""
    mobility_epochs: int = 0
    drift_epochs: int = 0
    total_displacement_m: float = 0.0
    """Ground-truth distance all mobile nodes drifted, summed."""
    present_final: int = 0
    """Members physically present and alive at the end of the run."""
    served_final: int = 0
    """Present members with a live route (not unreachable/blacklisted)."""

    @property
    def coverage_final(self) -> float:
        """Served / present at the end of the run (1.0 when nobody is
        present — an empty cluster degrades to trivially full coverage)."""
        if self.present_final == 0:
            return 1.0
        return self.served_final / self.present_final


def staleness_report(mac, injector=None, cycle_length: float | None = None) -> StalenessReport:
    """Build the dynamic-network report from a finished run's state.

    *mac* is the :class:`~repro.mac.pollmac.PollingClusterMac`; *injector*
    (optional) supplies ground truth — true deaths, churn outcomes, mobility
    displacement.  *cycle_length* defaults to the MAC's.
    """
    cycle_length = float(cycle_length or mac.cycle_length)
    stats = mac.cycle_stats
    replans = mac.replans

    # Plan age per executed cycle: full cycles between the newest plan in
    # force at the cycle's start and the cycle itself.
    ages: list[int] = []
    for s in stats:
        plan_time = max(
            (r.time for r in replans if r.time <= s.started_at), default=0.0
        )
        ages.append(int(round((s.started_at - plan_time) / cycle_length)))
    reasons: dict[str, int] = {}
    for r in replans:
        if r.cause == "recluster":
            reasons[r.reason] = reasons.get(r.reason, 0) + 1
    announce_bytes = sum(r.roster_bytes for r in replans)
    bitrate = float(mac.phy.medium.bitrate)

    n = mac.phy.n_sensors
    dead_true = frozenset(injector.dead) if injector is not None else frozenset(mac.blacklisted)
    departed = set(mac.departed)
    if injector is not None:
        departed |= set(injector.departed)
    present = {
        i
        for i in range(n)
        if i not in mac.absent and i not in departed and i not in dead_true
    }
    served = {
        i
        for i in present
        if i not in mac.unreachable and i not in mac.blacklisted
    }

    joins_planned = joins_powered = 0
    leaves = 0
    mobility_epochs = drift_epochs = 0
    displacement = 0.0
    if injector is not None:
        joins_planned = len(injector.joined) + len(injector.pending_joiners)
        joins_powered = len(injector.joined)
        leaves = len(injector.departed)
        mobility_epochs = injector.mobility_epochs
        drift_epochs = injector.drift_epochs
        displacement = injector.total_displacement_m
    joins_admitted = sum(
        1
        for i in (injector.joined if injector is not None else ())
        if i not in mac.absent
    )

    return StalenessReport(
        n_cycles=len(stats),
        reclusters=mac.reclusters,
        recluster_reasons=reasons,
        route_repairs=mac.route_repairs,
        mean_plan_age_cycles=(sum(ages) / len(ages)) if ages else 0.0,
        max_plan_age_cycles=max(ages, default=0),
        reform_announce_bytes=announce_bytes,
        reform_airtime_s=announce_bytes * 8.0 / bitrate if bitrate > 0 else 0.0,
        joins_planned=joins_planned,
        joins_powered=joins_powered,
        joins_admitted=joins_admitted,
        leaves=leaves,
        mobility_epochs=mobility_epochs,
        drift_epochs=drift_epochs,
        total_displacement_m=displacement,
        present_final=len(present),
        served_final=len(served),
    )

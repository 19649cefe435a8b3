"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is pure data — it names the faults a run should suffer
without touching any simulator state.  The :mod:`repro.faults.injector` binds
a plan to a live PHY stack; :mod:`repro.faults.gilbert` supplies the bursty
link-loss process a plan can request.  Keeping the description separate from
the mechanism lets experiments sweep plans declaratively and lets tests assert
that the *empty* plan leaves a run bit-for-bit untouched.

Fault taxonomy (cf. layered re-clustering under node death in LMEEC and
duty-cycle energy-depletion dynamics):

* :class:`NodeCrash` — fail-stop death of a basic sensor at a known time.
* :class:`TransientStun` — the node goes dark for a window and then recovers
  (brown-out, reboot, temporary obstruction).
* :class:`BatteryDepletion` — death driven by the *existing* energy model:
  the node dies the moment its :class:`~repro.radio.energy.EnergyMeter` has
  burned through the given capacity.
* :class:`BurstyLinks` — a Gilbert–Elliott loss process applied to every
  link, replacing the i.i.d. Bernoulli abstraction with correlated fades.

Dynamic-network events (DESIGN.md §11) extend the same taxonomy — the graph
itself changes, not just its health:

* :class:`NodeLeave` — an *announced* departure (battery swap, maintenance
  pull): the radio goes dark like a crash, but the membership layer is told,
  so no detection cycles are burned inferring it.
* :class:`NodeJoin` — a new sensor powers up at a position at a time; it is
  admitted into routing at the next re-cluster pass.
* :class:`Mobility` — bounded random drift applied to node positions at
  duty-cycle boundaries (slot-level PHY stays exact within a cycle).
* :class:`ChannelDrift` — slow deterministic modulation of the Gilbert–
  Elliott parameters mid-run (diurnal fading, weather), requires
  ``bursty_links`` to be armed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..topology.cluster import HEAD

__all__ = [
    "NodeCrash",
    "TransientStun",
    "BatteryDepletion",
    "BurstyLinks",
    "NodeJoin",
    "NodeLeave",
    "Mobility",
    "ChannelDrift",
    "FaultPlan",
]


def _check_sensor(node: int) -> None:
    if node == HEAD:
        raise ValueError(
            "the cluster head cannot be faulted (the paper's heads are "
            "powerful, externally powered nodes; head failover is a "
            "different subsystem)"
        )
    if node < 0:
        raise ValueError(f"sensor id must be >= 0, got {node}")


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop: sensor *node* dies at simulation time *at* and stays dead."""

    node: int
    at: float

    def __post_init__(self) -> None:
        _check_sensor(self.node)
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class TransientStun:
    """Sensor *node* goes dark at *at* for *duration* seconds, then recovers.

    While stunned the radio neither transmits nor receives (it looks exactly
    like a dead node to the head); at the end of the window it wakes into
    listening and resumes answering polls.
    """

    node: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        _check_sensor(self.node)
        if self.at < 0:
            raise ValueError(f"stun time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise ValueError(f"stun duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class BatteryDepletion:
    """Sensor *node* dies once its energy meter has consumed *capacity_j*.

    The consumption comes from the existing per-state radio energy model, so
    chatty relays die first — the depletion dynamics the min-max-load routing
    exists to postpone.  ``check_interval`` is how often the injector samples
    the meter (a deterministic polling clock, not an event hook, so adding a
    battery fault cannot reorder unrelated simulator events).
    """

    node: int
    capacity_j: float
    check_interval: float = 0.25

    def __post_init__(self) -> None:
        _check_sensor(self.node)
        if self.capacity_j <= 0:
            raise ValueError(f"capacity must be > 0 J, got {self.capacity_j}")
        if self.check_interval <= 0:
            raise ValueError(
                f"check interval must be > 0 s, got {self.check_interval}"
            )


@dataclass(frozen=True)
class BurstyLinks:
    """Gilbert–Elliott bursty loss on every link (see :mod:`.gilbert`).

    ``p_good_to_bad`` / ``p_bad_to_good`` are per-step transition
    probabilities of the two-state chain; each state drops frames i.i.d. at
    its own rate.  ``coherence_s`` is the real-time length of one chain step
    when the model is driven from the continuous-time PHY decode path
    (slot-driven users step the chain once per slot instead).
    """

    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.30
    loss_good: float = 0.0
    loss_bad: float = 0.6
    coherence_s: float = 0.02

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.loss_bad >= 1.0 and self.p_bad_to_good == 0.0:
            raise ValueError(
                "loss_bad=1 with p_bad_to_good=0 makes links fail forever"
            )
        if self.coherence_s <= 0:
            raise ValueError(f"coherence must be > 0 s, got {self.coherence_s}")


@dataclass(frozen=True)
class NodeJoin:
    """A new sensor powers up at *position* at time *at*.

    Joins are named up front (the plan is pure data), so the harness can
    pre-allocate the joiner's PHY slot at construction; its sensor id is
    assigned in plan order after the existing sensors (the i-th join of a
    run with n deployed sensors becomes sensor ``n + i``).  The radio stays
    asleep and the sensor is excluded from all planning until *at*; a
    re-cluster pass after the join admits it into routing.
    """

    at: float
    position: tuple[float, float]

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"join time must be >= 0, got {self.at}")
        pos = tuple(float(c) for c in self.position)
        if len(pos) != 2:
            raise ValueError(f"position must be (x, y), got {self.position!r}")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class NodeLeave:
    """Sensor *node* departs (announced) at time *at* and never returns.

    Unlike :class:`NodeCrash`, the departure is *known* to the membership
    layer the moment it happens — the head does not spend detection cycles
    inferring it — but physically the radio goes just as dark (fail-stop).
    """

    node: int
    at: float

    def __post_init__(self) -> None:
        _check_sensor(self.node)
        if self.at < 0:
            raise ValueError(f"leave time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class Mobility:
    """Bounded random drift of node positions at duty-cycle boundaries.

    Each mobile node takes one independent step per cycle: a uniformly
    random direction and a uniform distance in ``[0, speed_mps * cycle]``,
    reflected back into the bounding box.  Draws come from the dedicated
    ``mobility`` RNG stream, sub-split per node, so enabling mobility can
    never perturb the fault stream (or any other stream) of a seeded run.

    ``nodes=None`` moves every basic sensor (the head is the powerful,
    mains-backed tier-2 node — it stays put).  ``bounds`` is the
    ``(xmin, xmax, ymin, ymax)`` box positions are kept inside; ``None``
    derives it from the initial deployment's bounding box.
    """

    speed_mps: float
    nodes: tuple[int, ...] | None = None
    bounds: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.speed_mps <= 0:
            raise ValueError(f"speed must be > 0 m/s, got {self.speed_mps}")
        if self.nodes is not None:
            nodes = tuple(int(n) for n in self.nodes)
            for n in nodes:
                _check_sensor(n)
            object.__setattr__(self, "nodes", nodes)
        if self.bounds is not None:
            b = tuple(float(v) for v in self.bounds)
            if len(b) != 4 or b[0] >= b[1] or b[2] >= b[3]:
                raise ValueError(
                    f"bounds must be (xmin, xmax, ymin, ymax) with min < max, "
                    f"got {self.bounds!r}"
                )
            object.__setattr__(self, "bounds", b)


@dataclass(frozen=True)
class ChannelDrift:
    """Slow sinusoidal modulation of the Gilbert–Elliott parameters.

    At every duty-cycle boundary the injector re-parameterizes the armed
    :class:`BurstyLinks` process around its base values::

        loss_bad(t) = clip(base + loss_bad_amplitude * sin(2*pi*t/period_s + phase), 0, 1)
        p_gb(t)     = clip(base + p_gb_amplitude    * sin(2*pi*t/period_s + phase), 0, 1)

    Deterministic by construction (no RNG draws), so a drifting channel
    perturbs nothing but the loss parameters themselves.  Requires
    ``bursty_links`` on the same plan — drift without a loss process has
    nothing to modulate.
    """

    period_s: float
    loss_bad_amplitude: float = 0.3
    p_gb_amplitude: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError(f"drift period must be > 0 s, got {self.period_s}")
        for name in ("loss_bad_amplitude", "p_gb_amplitude"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class FaultPlan:
    """The full fault description of one run.

    An empty plan (the default) is the contract for backward compatibility:
    a simulation given ``FaultPlan()`` must produce results identical to one
    given no plan at all — no RNG draws, no extra events, nothing.  The
    dynamic-network fields (joins/leaves/mobility/channel drift) honor the
    same contract: leaving them at their defaults adds zero events.
    """

    crashes: tuple[NodeCrash, ...] = ()
    stuns: tuple[TransientStun, ...] = ()
    batteries: tuple[BatteryDepletion, ...] = ()
    bursty_links: BurstyLinks | None = None
    joins: tuple[NodeJoin, ...] = ()
    leaves: tuple[NodeLeave, ...] = ()
    mobility: Mobility | None = None
    channel_drift: ChannelDrift | None = None

    def __post_init__(self) -> None:
        # Accept lists for ergonomic literals; normalize to tuples.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stuns", tuple(self.stuns))
        object.__setattr__(self, "batteries", tuple(self.batteries))
        object.__setattr__(self, "joins", tuple(self.joins))
        object.__setattr__(self, "leaves", tuple(self.leaves))
        crashed = [c.node for c in self.crashes]
        if len(set(crashed)) != len(crashed):
            raise ValueError(f"duplicate crash entries for nodes {crashed}")
        left = [l.node for l in self.leaves]
        if len(set(left)) != len(left):
            raise ValueError(f"duplicate leave entries for nodes {left}")
        if self.channel_drift is not None and self.bursty_links is None:
            raise ValueError(
                "channel_drift modulates the Gilbert-Elliott process; the "
                "plan must also arm bursty_links"
            )

    @property
    def is_empty(self) -> bool:
        return (
            not self.crashes
            and not self.stuns
            and not self.batteries
            and self.bursty_links is None
            and not self.joins
            and not self.leaves
            and self.mobility is None
            and self.channel_drift is None
        )

    def faulted_nodes(self) -> set[int]:
        """Every sensor the plan can possibly kill, stun, or remove."""
        return (
            {c.node for c in self.crashes}
            | {s.node for s in self.stuns}
            | {b.node for b in self.batteries}
            | {l.node for l in self.leaves}
        )

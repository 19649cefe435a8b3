"""Scalar/vector slot-engine parity on shared multi-cluster media.

Every field run below is simulated twice, once per slot engine, and the two
runs must agree on everything the field reports: the behavioural
fingerprint of ``tests/net/test_handoff.py`` (per-radio energy floats
included), every handoff and adoption event, and each MAC's re-plan records
and deliveries.  The configs cover the three coordination modes and every
field-wide event that can land near a polling slot: mobility epochs,
re-form prepares and commits (some inside a running phase), head crashes,
adoptions inside a running phase, and telemetry.
"""

import dataclasses
import functools
from contextlib import nullcontext

import pytest

from repro import obs
from repro.mac.pollmac import PollingClusterMac
from repro.mac.vector_engine import VectorPhaseEngine
from repro.net import MultiClusterConfig, run_multicluster_simulation
from repro.net import multicluster_sim
from repro.radio.channel import RadioMedium

from .test_handoff import fingerprint

CONFIGS = {
    "channels-static": MultiClusterConfig(n_cycles=4, seed=0),
    "token": MultiClusterConfig(n_cycles=4, seed=0, mode="token"),
    "uncoordinated": MultiClusterConfig(n_cycles=3, seed=0, mode="uncoordinated"),
    "mobility-staleness": MultiClusterConfig(
        n_cycles=8, seed=2, mobility_speed_mps=3.0, handoff="staleness"
    ),
    "mobility-periodic": MultiClusterConfig(
        n_cycles=6, seed=2, mobility_speed_mps=2.0, handoff="periodic"
    ),
    "prepare-mid-phase": MultiClusterConfig(
        n_cycles=6, seed=3, cycle_length=2.0, rate_bps=200.0,
        mobility_speed_mps=4.0, handoff="periodic",
    ),
    "crash-failover-backups": MultiClusterConfig(
        n_cycles=6, seed=2, head_failover=True, head_crashes=((1, 8.0),),
        dead_after_misses=2, backup_k=2,
    ),
    "adoption-mid-phase": MultiClusterConfig(
        n_cycles=4, seed=0, head_failover=True, head_crashes=((1, 11.7),)
    ),
    "telemetry": MultiClusterConfig(
        n_cycles=4, seed=1, mobility_speed_mps=2.0, handoff="staleness"
    ),
}
# Configs run traced, each into a fresh collector.
TRACED = {"telemetry"}
# Module constants a config runs under, patched in by _config.
CONSTANTS = {
    # 2 s cycles with a 1 s lead: prepares fire while cluster 2 is polling.
    "prepare-mid-phase": {"COMMIT_LEAD_S": 1.0},
    # Beacons every 0.25 s: head 1 is declared dead at 12.25 s, inside the
    # cycle-2 phases of both adopters.
    "adoption-mid-phase": {"BEACON_INTERVAL_S": 0.25},
}


def _config(name: str, monkeypatch) -> MultiClusterConfig:
    """CONFIGS[name], with its CONSTANTS patched in for the test."""
    for constant, value in CONSTANTS.get(name, {}).items():
        monkeypatch.setattr(multicluster_sim, constant, value)
    return CONFIGS[name]


def _record(res) -> dict:
    """Everything a field run reports, in engine-independent form."""
    adoptions = [] if res.coordinator is None else res.coordinator.adoption_events
    return {
        "fingerprint": fingerprint(res),
        "handoffs": res.handoff_events,
        "adoptions": adoptions,
        "replans": [mac.replans for mac in res.macs],
        # Packet seq numbers come from a process-global counter: compare
        # deliveries by (time, origin, created).
        "deliveries": [
            [(t, p.origin, p.created) for t, p in mac.deliveries] for mac in res.macs
        ],
    }


def _run(cfg: MultiClusterConfig, engine: str, traced: bool = False):
    with obs.use(obs.Telemetry()) if traced else nullcontext():
        return run_multicluster_simulation(dataclasses.replace(cfg, engine=engine))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engines_agree_on_field_runs(name, monkeypatch):
    cfg, traced = _config(name, monkeypatch), name in TRACED
    vector, scalar = _run(cfg, "vector", traced), _run(cfg, "scalar", traced)
    assert _record(vector) == _record(scalar)
    assert sum(mac.vector_slots for mac in scalar.macs) == 0


def test_prepare_lands_while_a_cluster_polls(monkeypatch):
    """The prepare-mid-phase config stages moves while a cluster is inside
    its duty cycle, so the prepare's retunes fall between its slots."""
    seen = []
    prepare = multicluster_sim.FieldCoordinator._prepare

    def spy(coord):
        busy = [mac.cluster_id for mac in coord.macs if mac.mid_cycle]
        prepare(coord)
        seen.append((busy, len(coord._pending[1]) if coord._pending else 0))

    monkeypatch.setattr(multicluster_sim.FieldCoordinator, "_prepare", spy)
    run_multicluster_simulation(_config("prepare-mid-phase", monkeypatch))
    assert any(busy and staged for busy, staged in seen)


# -- the hazards behind the per-slot check (VectorPhaseEngine._clean) ----------


def _retune_at(monkeypatch, t: float, node: int, channel: int) -> None:
    """Schedule an unowned retune of *node* at *t* in the next field run."""

    class Retuned(RadioMedium):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.sim.at(t, self.set_channel, node, channel)

    monkeypatch.setattr(multicluster_sim, "RadioMedium", Retuned)


def test_adoption_sends_the_rest_of_the_phase_down_the_event_path(monkeypatch):
    """Rule 1: once an adoption replaces ``mac.phy`` under a running phase
    engine, no further slot of that phase batches."""
    calls = []
    try_slot = VectorPhaseEngine.try_slot

    def spy(engine, payload, group):
        replaced = engine.mac.phy is not engine.phy
        batched = try_slot(engine, payload, group)
        calls.append((replaced, batched))
        return batched

    cfg = _config("adoption-mid-phase", monkeypatch)
    scalar = _record(_run(cfg, "scalar"))
    monkeypatch.setattr(VectorPhaseEngine, "try_slot", spy)
    assert _record(_run(cfg, "vector")) == scalar
    after = [batched for replaced, batched in calls if replaced]
    assert after and not any(after)
    assert any(batched for _, batched in calls)


def test_retune_after_a_batch_slot_waits_out_overlapping_frames(monkeypatch):
    """Rule 7: cluster 0 (channel 2) runs a data slot ending at 6.08033 s
    in which sensor 13 sends, and a channel-0 data frame of cluster 2 that
    overlapped it ends at 6.0811 s.  Retuning 13 onto channel 0 in between
    makes radio 54 lose that frame on the event path (found from a scalar
    run's frame log), so the batch engine must not take the slot."""
    cfg = MultiClusterConfig(n_cycles=3, seed=1, rate_bps=200.0)
    _retune_at(monkeypatch, 6.080715, 13, 0)
    scalar = fingerprint(_run(cfg, "scalar"))
    assert fingerprint(_run(cfg, "vector")) == scalar
    # With the unowned-event horizon cut back to the slot end, the slot
    # runs in batch, its frame never joins the overlapping frame's
    # interferers, and the engines diverge.
    init = VectorPhaseEngine.__init__

    def cut_back(engine, *args):
        init(engine, *args)
        engine.air_max = 0.0

    monkeypatch.setattr(VectorPhaseEngine, "__init__", cut_back)
    assert fingerprint(_run(cfg, "vector")) != scalar


def test_listener_of_another_cluster_on_the_channel_blocks_batch(monkeypatch):
    """Rule 5: cluster 1's sensor 41, within carrier-sense reach of cluster
    0, listens on cluster 0's channel 2 from t=0."""
    cfg = MultiClusterConfig(n_cycles=3, seed=0)
    _retune_at(monkeypatch, 0.0, 41, 2)
    scalar = fingerprint(_run(cfg, "scalar"))
    vector = _run(cfg, "vector")
    assert fingerprint(vector) == scalar
    assert vector.macs[0].vector_slots == 0 < vector.macs[0].scalar_slots
    assert vector.macs[2].vector_slots > 0
    # Rule 5 off.  The coloring asks the same question, so hold its map.
    channels = vector.channels
    monkeypatch.setattr(multicluster_sim, "assign_channels", lambda med, rs: channels)
    monkeypatch.setattr(RadioMedium, "in_cs_reach", lambda med, listeners, senders: False)
    assert fingerprint(_run(cfg, "vector")) != scalar


def test_lossy_medium_after_an_adoption(monkeypatch):
    """With frame errors every decode on the medium draws from one stream,
    in the medium's registration order.  Head 0 crashes and head 1 adopts
    its sensors, which were registered before head 1's own radios but get
    local ids after them; the batch path must still draw in registration
    order, and must not draw ahead of another cluster's decodes."""
    monkeypatch.setattr(
        multicluster_sim,
        "RadioMedium",
        functools.partial(RadioMedium, frame_error_rate=0.05, error_seed=7),
    )
    cfg = MultiClusterConfig(
        n_sensors=40, n_heads=2, field_m=240.0, n_cycles=4, seed=0,
        head_failover=True, head_crashes=((0, 1.0),),
    )
    vector = _run(cfg, "vector")
    assert vector.coordinator.adoption_events
    assert _record(vector) == _record(_run(cfg, "scalar"))
    assert vector.macs[1].vector_slots > 0

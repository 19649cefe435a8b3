"""Each re-plan reaches a trace once, as one ``replan`` timeline event.

On traced field runs, every :class:`~repro.mac.pollmac.Replan` a head
records (initial plan, adoption, repair, field re-form) must appear as
exactly one ``replan`` event carrying the record's cause and node sets, no
span may duplicate a re-plan, and the ``mac.route_repairs`` and
``mac.field_reforms`` counters must equal reductions over the records.
"""

import pytest

from repro.faults import FaultPlan, NodeCrash
from repro.net import MultiClusterConfig, run_multicluster_simulation
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.obs import Telemetry, export_jsonl, load_jsonl, use
from repro.obs.inspect import failure_chains


FIELD_RUNS = {
    # Drift, staleness handoff and a head crash: adoption and repair re-plans.
    "head-crash": MultiClusterConfig(
        n_sensors=60,
        n_heads=3,
        n_cycles=6,
        seed=1,
        mobility_speed_mps=2.0,
        handoff="staleness",
        head_failover=True,
        head_crashes=((2, 14.0),),
        dead_after_misses=2,
    ),
    # Fast drift under periodic handoff: field re-form re-plans.
    "field-reform": MultiClusterConfig(
        n_cycles=6, seed=2, mobility_speed_mps=4.0, handoff="periodic"
    ),
}


def _traced(run, config):
    """``run(config)`` traced into a fresh collector."""
    with use(Telemetry()):
        return run(config)


@pytest.fixture(scope="module", params=sorted(FIELD_RUNS))
def field_run(request):
    return _traced(run_multicluster_simulation, FIELD_RUNS[request.param])


def _events_of(tel, cluster):
    return [
        e for e in tel.timeline if e.name == "replan" and e.attrs["cluster"] == cluster
    ]


def _assert_one_event_per_record(tel, mac):
    events = _events_of(tel, mac.cluster_id)
    assert len(events) == len(mac.replans)
    for ev, rec in zip(events, mac.replans):
        assert ev.time == rec.time
        assert ev.attrs["cause"] == rec.cause
        assert tuple(ev.attrs["excluded"]) == rec.excluded
        assert tuple(ev.attrs["unreachable"]) == rec.unreachable
        assert tuple(ev.attrs["newly_unreachable"]) == rec.newly_unreachable
        assert tuple(ev.attrs["admitted"]) == rec.admitted
        assert ev.attrs["reason"] == rec.reason
        assert ev.attrs["roster_bytes"] == rec.roster_bytes


def test_every_field_replan_is_one_timeline_event(field_run):
    tel = field_run.telemetry
    causes = [r.cause for mac in field_run.macs for r in mac.replans]
    assert set(causes) - {"initial"}
    for mac in field_run.macs:
        _assert_one_event_per_record(tel, mac)
    assert sum(e.name == "replan" for e in tel.timeline) == len(causes)


def test_no_span_duplicates_a_replan(field_run):
    kinds = {span.kind for span in field_run.telemetry.spans}
    assert not kinds & {"repair", "recluster"}


def test_replan_counters_equal_reductions_over_the_records(field_run):
    metrics = field_run.telemetry.metrics
    repairs = metrics.counter("mac.route_repairs").value
    assert repairs == sum(mac.route_repairs for mac in field_run.macs) > 0
    reforms = sum(r.cause == "field-reform" for mac in field_run.macs for r in mac.replans)
    assert metrics.counter("mac.field_reforms").value == reforms


def test_single_cluster_replans_are_timeline_events():
    res = _traced(
        run_polling_simulation,
        PollingSimConfig(
            n_sensors=30,
            n_cycles=8,
            seed=3,
            fault_plan=FaultPlan(crashes=[NodeCrash(node=3, at=20.3)]),
        ),
    )
    assert [r.cause for r in res.mac.replans] == ["initial", "repair"]
    _assert_one_event_per_record(res.telemetry, res.mac)


def test_failure_chains_link_only_the_requests_cluster(tmp_path):
    """Sensor ids are local to a cluster: a failed request's chain links the
    blacklist and re-plan events of its own cluster only."""
    res = _traced(run_multicluster_simulation, FIELD_RUNS["head-crash"])
    trace = load_jsonl(export_jsonl(res.telemetry, tmp_path / "trace.jsonl"))
    cluster_of = {
        span["span_id"]: span["attrs"]["cluster"]
        for span in trace["spans"]
        if span["kind"] == "phase"
    }
    chains = failure_chains(trace)
    assert any(chain["repairs"] for chain in chains)
    for chain in chains:
        cluster = cluster_of[chain["request"]["parent_id"]]
        for event in chain["blacklist"] + chain["repairs"]:
            assert event["attrs"]["cluster"] == cluster

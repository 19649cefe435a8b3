"""Each fact of a polling run reaches the trace once, from the record that
holds it (DESIGN.md §10).

A duty cycle's outcome is the MAC's :class:`~repro.mac.pollmac.CycleStats`
record: its cycle span, its ``mac.*`` cycle counters and its cycle snapshot
must read the same numbers, and its phase spans must account for its slots.
A poll request's outcome is its span's close, so no span event repeats it
and nothing lands on a request after it closed.  ``failure_chains`` and the
``summarize`` report read those records; their output on the faulted run is
pinned below.
"""

from collections import defaultdict

import pytest

from repro.faults import BurstyLinks, FaultPlan, NodeCrash
from repro.net import MultiClusterConfig, run_multicluster_simulation
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation
from repro.obs import Telemetry, export_jsonl, load_jsonl, use
from repro.obs.inspect import failure_chains, summarize

# The relay crash of tests/obs/test_integration.py (relay 3 is the lowest
# relay min-max routing uses on seed 3).
FAULTED = PollingSimConfig(
    n_sensors=30,
    n_cycles=8,
    seed=3,
    fault_plan=FaultPlan(crashes=[NodeCrash(node=3, at=20.3)]),
)

TRACED_RUNS = {
    "faulted": FAULTED,
    "sectored": PollingSimConfig(n_sensors=30, n_cycles=4, seed=1, use_sectors=True),
    # The head-crash field run of tests/obs/test_replan_events.py.
    "field-head-crash": MultiClusterConfig(
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
}

# Bursty loss with one backup path per sensor: in-cycle failovers, and
# requests that are delivered or written off while a failover is logged.
BURSTY_BACKUP = PollingSimConfig(
    n_sensors=30,
    n_cycles=8,
    seed=1,
    fault_plan=FaultPlan(bursty_links=BurstyLinks()),
    backup_k=1,
)


def _traced_run(config):
    """Run *config* traced into a fresh collector."""
    with use(Telemetry()):
        if isinstance(config, MultiClusterConfig):
            return run_multicluster_simulation(config)
        return run_polling_simulation(config)


def _run(config):
    res = _traced_run(config)
    macs = res.macs if isinstance(config, MultiClusterConfig) else [res.mac]
    return res.telemetry, list(macs)


@pytest.fixture(scope="module", params=sorted(TRACED_RUNS))
def traced(request):
    return _run(TRACED_RUNS[request.param])


def _records(macs):
    """``{(cluster, cycle): CycleStats}`` over every MAC of the run."""
    out = {}
    for mac in macs:
        for stats in mac.cycle_stats:
            out[(mac.cluster_id, stats.cycle_index)] = stats
    assert out, "the run must record at least one cycle"
    return out


def test_cycle_spans_equal_the_cycle_records(traced):
    tel, macs = traced
    records = _records(macs)
    closed = {
        (span.attrs["cluster"], span.attrs["cycle"]): span
        for span in tel.spans_of("cycle")
        if span.end is not None
    }
    assert set(closed) == set(records)
    for key, span in closed.items():
        stats = records[key]
        assert span.attrs["delivered"] == stats.packets_delivered
        assert span.attrs["offered"] == stats.packets_offered
        assert span.attrs["ack_slots"] == stats.ack_slots
        assert span.attrs["data_slots"] == stats.data_slots
        assert span.attrs["retransmissions"] == stats.retransmissions
        assert span.start == stats.started_at
        assert span.end - span.start == stats.duty_time


def test_cycle_counters_are_sums_over_the_records(traced):
    tel, macs = traced
    stats = [s for mac in macs for s in mac.cycle_stats]
    metrics = tel.metrics
    assert metrics.counter("mac.cycles").value == len(stats)
    assert metrics.counter("mac.ack_slots").value == sum(s.ack_slots for s in stats)
    assert metrics.counter("mac.data_slots").value == sum(s.data_slots for s in stats)
    assert metrics.counter("mac.packets_delivered").value == sum(
        s.packets_delivered for s in stats
    )
    assert metrics.counter("mac.retransmissions").value == sum(
        s.retransmissions for s in stats
    )


def test_cycle_snapshots_carry_the_records_cycle_and_duty_time(traced):
    tel, macs = traced
    records = _records(macs)
    keyed = {(snap["cluster"], snap["cycle"]): snap for snap in tel.cycle_snapshots}
    assert len(keyed) == len(tel.cycle_snapshots) == len(records)
    for key, stats in records.items():
        assert keyed[key]["cycle"] == stats.cycle_index
        assert keyed[key]["duty_time"] == stats.duty_time


def test_phase_spans_account_for_the_cycles_slots(traced):
    tel, macs = traced
    records = _records(macs)
    cycle_of = {
        span.span_id: (span.attrs["cluster"], span.attrs["cycle"])
        for span in tel.spans_of("cycle")
    }
    slots = defaultdict(int)
    for phase in tel.spans_of("phase"):
        key = cycle_of[phase.parent_id]
        if key in records:
            slots[key] += phase.attrs["slots"]
    for key, stats in records.items():
        assert slots[key] == stats.ack_slots + stats.data_slots


# -- the faulted run's failed requests, as failure_chains and summarize see them


# Per failed request: (request id, sensor, each event's (time, name), the
# times of its linked blacklist events, the times of its linked re-plans).
FAILURE_CHAINS = [
    (
        8,
        3,
        [
            (20.308450000000025, "attempt"),
            (20.324470000000026, "retry"),
            (20.324470000000026, "attempt"),
            (20.340490000000027, "retry"),
            (20.340490000000027, "abandoned"),
        ],
        [20.340490000000027],
        [40.71962999999964],
    ),
    (
        65,
        26,
        [
            (20.68225000000005, "attempt"),
            (20.70361000000005, "retry"),
            (20.70361000000005, "attempt"),
            (20.724970000000052, "retry"),
            (20.724970000000052, "abandoned"),
        ],
        [20.724970000000052],
        [],
    ),
]

FAILED_SECTION = """\
failed poll requests (2):
  request #8 (sensor 3, span #142):
    t=   20.3085  attempt
    t=   20.3245  retry
    t=   20.3245  attempt
    t=   20.3405  retry
    t=   20.3405  abandoned
    t=   20.3405  blacklist declared
    t=   40.7196  repair re-plan (excluded=[3])
  request #65 (sensor 26, span #185):
    t=   20.6823  attempt
    t=   20.7036  retry
    t=   20.7036  attempt
    t=   20.7250  retry
    t=   20.7250  abandoned
    t=   20.7250  blacklist declared"""


@pytest.fixture(scope="module")
def faulted_trace(tmp_path_factory):
    res = _traced_run(FAULTED)
    path = tmp_path_factory.mktemp("trace") / "faulted.jsonl"
    return load_jsonl(export_jsonl(res.telemetry, path))


def test_failure_chains_golden(faulted_trace):
    chains = failure_chains(faulted_trace)
    got = [
        (
            chain["request"]["attrs"]["request_id"],
            chain["sensor"],
            [(ev["time"], ev["name"]) for ev in chain["events"]],
            [ev["time"] for ev in chain["blacklist"]],
            [ev["time"] for ev in chain["repairs"]],
        )
        for chain in chains
    ]
    assert got == FAILURE_CHAINS


def test_summarize_failed_requests_golden(faulted_trace):
    report = summarize(faulted_trace)
    section = report[report.index("failed poll requests") :]
    assert section == FAILED_SECTION


# -- one record per request outcome ----------------------------------------------


@pytest.fixture(scope="module")
def bursty_trace(tmp_path_factory):
    res = _traced_run(BURSTY_BACKUP)
    path = tmp_path_factory.mktemp("trace") / "bursty.jsonl"
    return res.telemetry, load_jsonl(export_jsonl(res.telemetry, path))


def test_no_span_event_repeats_another_record(bursty_trace):
    tel, _ = bursty_trace
    names = {ev.name for span in tel.spans for ev in span.events}
    assert names, "the run must annotate its requests"
    assert not names & {"slot", "delivered", "abandoned"}


def test_no_request_event_lands_after_the_span_closed(bursty_trace):
    tel, _ = bursty_trace
    late = [
        (span.span_id, ev.name)
        for span in tel.spans_of("request")
        if span.end is not None
        for ev in span.events
        if ev.time > span.end
    ]
    assert late == []


def test_summarize_timeline_lists_each_failover_once(bursty_trace):
    tel, trace = bursty_trace
    failovers = sum(ev.name == "failover" for ev in tel.timeline)
    assert failovers > 0
    report = summarize(trace)
    section = report[report.index("violation / failover / re-plan timeline") :]
    # Each row is f"  t={time:>10.4f}  {name:<20} {attrs}".
    rows = section.split("\n\n", 1)[0].splitlines()[1:]
    assert sum(row[16:36].strip() == "failover" for row in rows) == failovers


def test_no_delivered_request_holds_a_failover_it_never_used(bursty_trace):
    """A request's ``failover`` event marks a change of its own path, so a
    request delivered after one was polled again on the new path."""
    tel, _ = bursty_trace
    annotated, unused = 0, []
    for span in tel.spans_of("request"):
        names = [ev.name for ev in span.events]
        annotated += "failover" in names
        attempts = [i for i, name in enumerate(names) if name == "attempt"]
        tail = names[attempts[-1] + 1 :] if attempts else names
        if span.attrs.get("status") == "ok" and "failover" in tail:
            unused.append(span.attrs["request_id"])
    assert annotated > 0
    assert unused == []

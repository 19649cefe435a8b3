"""Unit tests for spans, the telemetry context, and summary aggregation."""

import pytest

from repro import obs, validate
from repro.obs import NULL_TELEMETRY, Telemetry


def test_current_is_null_outside_any_scope():
    assert obs.current() is NULL_TELEMETRY
    assert not obs.current().enabled


def test_use_scopes_and_nests():
    outer, inner = Telemetry(), Telemetry()
    with obs.use(outer):
        assert obs.current() is outer
        with obs.use(inner):
            assert obs.current() is inner
        assert obs.current() is outer
    assert obs.current() is NULL_TELEMETRY


def test_span_ids_are_stable_and_parented():
    tel = Telemetry()
    run = tel.begin("run", "r", 0.0, clock="wall")
    cycle = tel.begin("cycle", "c0", 0.0, parent=run)
    tel.finish(cycle, 10.0, delivered=5)
    assert run.span_id != cycle.span_id
    assert cycle.parent_id == run.span_id
    assert cycle.duration == 10.0
    assert cycle.attrs["delivered"] == 5
    assert run.duration == 0.0  # still open
    assert tel.find_span(cycle.span_id) is cycle
    assert tel.spans_of("cycle") == [cycle]


def test_begin_rejects_unknown_clock():
    with pytest.raises(ValueError, match="clock"):
        Telemetry().begin("run", "r", 0.0, clock="lunar")


def test_disabled_telemetry_records_nothing():
    tel = Telemetry(enabled=False)
    span = tel.begin("run", "r", 0.0)
    assert span is None
    tel.finish(span, 1.0)
    tel.add_event(span, 0.5, "retry")
    tel.timeline_event(0.5, "failover")
    tel.snapshot_cycle(cycle=0)
    assert tel.spans == []
    assert tel.timeline == []
    assert tel.cycle_snapshots == []


def test_span_events_and_timeline():
    tel = Telemetry()
    span = tel.begin("request", "poll:s3", 1.0, clock="slot", sensor=3)
    tel.add_event(span, 2.0, "retry", attempt=2)
    tel.timeline_event(5.0, "blacklist", sensor=3)
    assert span.events[0].name == "retry"
    assert span.events[0].attrs["attempt"] == 2
    assert tel.timeline[0].name == "blacklist"


def test_wall_stack_push_pop():
    tel = Telemetry()
    a = tel.begin("profile", "outer", 0.0, clock="wall")
    tel.push_wall(a)
    assert tel.wall_parent is a
    b = tel.begin("profile", "inner", 0.0, clock="wall")
    tel.push_wall(b)
    assert tel.wall_parent is b
    tel.pop_wall(b)
    tel.pop_wall(a)
    assert tel.wall_parent is None
    tel.push_wall(None)  # disabled begin: no-op
    assert tel.wall_parent is None


def test_use_attaches_invariant_listener():
    tel = Telemetry()
    with validate.MONITOR.at_mode("warn"), obs.use(tel):
        assert tel.on_violation in validate.MONITOR.listeners
        with pytest.warns(validate.InvariantWarning):
            validate.MONITOR.record(
                "test", "boom", nodes=(1,), sim_time=4.2
            )
    assert tel.on_violation not in validate.MONITOR.listeners
    assert len(tel.timeline) == 1
    ev = tel.timeline[0]
    assert ev.name == "invariant-violation"
    assert ev.time == 4.2
    assert ev.attrs["invariant"] == "test"
    assert ev.attrs["nodes"] == [1]


def test_use_disabled_telemetry_does_not_attach_listener():
    tel = Telemetry(enabled=False)
    with obs.use(tel):
        assert tel.on_violation not in validate.MONITOR.listeners


def test_snapshot_cycle_captures_cumulative_registry():
    tel = Telemetry()
    tel.metrics.counter("n").inc()
    tel.snapshot_cycle(cycle=0)
    tel.metrics.counter("n").inc()
    tel.snapshot_cycle(cycle=1)
    assert tel.cycle_snapshots[0]["metrics"]["n"]["value"] == 1
    assert tel.cycle_snapshots[1]["metrics"]["n"]["value"] == 2
    assert tel.cycle_snapshots[1]["cycle"] == 1


def test_span_aggregate_totals_per_clock_and_kind():
    tel = Telemetry()
    tel.finish(tel.begin("cycle", "c0", 0.0), 3.0)
    tel.finish(tel.begin("cycle", "c1", 3.0), 5.0)
    tel.begin("profile", "solve", 0.0, clock="wall")  # still open: no duration
    assert tel.span_aggregate() == {
        "sim:cycle": {"count": 2, "dur": 5.0},
        "wall:profile": {"count": 1, "dur": 0.0},
    }


def test_null_telemetry_is_shared_and_inert():
    before = len(NULL_TELEMETRY.spans)
    NULL_TELEMETRY.timeline_event(0.0, "x")
    assert NULL_TELEMETRY.begin("run", "r", 0.0) is None
    assert len(NULL_TELEMETRY.spans) == before

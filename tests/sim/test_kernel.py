"""Unit tests for the discrete-event kernel."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.sim import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(2.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.schedule(3.0, out.append, "latest")
    sim.run()
    assert out == ["early", "late", "latest"]


def test_equal_time_events_fire_fifo():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(1.0, out.append, i)
    sim.run()
    assert out == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(10.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.pending_count == 1  # the t=10 event survives


def test_run_until_advances_clock_even_when_heap_drains():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    out = []

    def first():
        sim.schedule(1.0, out.append, "second")
        out.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert out == ["first", "second"]


def test_cancel_prevents_firing():
    sim = Simulator()
    out = []
    handle = sim.schedule(1.0, out.append, "cancelled")
    sim.schedule(2.0, out.append, "kept")
    handle.cancel()
    sim.run()
    assert out == ["kept"]
    assert handle.cancelled and not handle.fired


def test_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    handle = sim.schedule(0.5, lambda: None)
    sim.run()
    assert handle.fired
    handle.cancel()  # no error
    assert not handle.pending


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_stop_halts_processing():
    sim = Simulator()
    out = []
    sim.schedule(1.0, lambda: (out.append(1), sim.stop()))
    sim.schedule(2.0, out.append, 2)
    sim.run()
    assert out == [1]
    sim.run()  # resume
    assert out == [1, 2]


def test_step_executes_single_event():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(2.0, out.append, "b")
    assert sim.step() is True
    assert out == ["a"]
    assert sim.step() is True
    assert sim.step() is False
    assert out == ["a", "b"]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek_time() == 3.0 or sim.peek_time() == 2.0
    assert sim.peek_time() == 2.0


def test_reentrant_run_rejected():
    sim = Simulator()

    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, recurse)
    sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator(start_time=3.0)
    seen = []
    sim.schedule(0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.0]


def test_random_schedules_fire_sorted():
    from hypothesis import given, settings, strategies as st

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def run(delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    run()


def test_interleaved_schedule_and_cancel():
    from hypothesis import given, settings, strategies as st

    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.booleans()), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def run(entries):
        sim = Simulator()
        fired = []
        handles = []
        for d, cancel in entries:
            handles.append((sim.schedule(d, lambda d=d: fired.append(d)), cancel))
        for h, cancel in handles:
            if cancel:
                h.cancel()
        sim.run()
        expected = sorted(d for (d, cancel) in entries if not cancel)
        assert sorted(fired) == expected

    run()


# -- quiet_until: the batch slot engine's window probe -------------------------


def _neutral():
    pass


_neutral._radio_neutral = True


def test_quiet_until_scopes_owned_events_by_touches():
    sim = Simulator()
    mine, other = object(), object()
    sim.schedule(1.0, lambda: None).owner = other
    assert not sim.quiet_until(1.0)  # unscoped: every event counts
    assert sim.quiet_until(1.0, touches=lambda owner: owner is mine)
    sim.schedule(0.5, lambda: None).owner = mine
    assert not sim.quiet_until(1.0, touches=lambda owner: owner is mine)
    assert sim.quiet_until(0.4, touches=lambda owner: owner is mine)


def test_quiet_until_counts_unowned_events_up_to_their_own_horizon():
    sim = Simulator()
    sim.schedule(2.0, lambda: None).owner = object()  # owned, past t_end
    assert sim.quiet_until(1.0, touches=lambda owner: True, unowned_end=3.0)
    sim.schedule(2.5, lambda: None)  # unowned: may touch anything
    assert sim.quiet_until(1.0, touches=lambda owner: False, unowned_end=2.4)
    assert not sim.quiet_until(1.0, touches=lambda owner: False, unowned_end=3.0)


def test_quiet_until_ignores_radio_neutral_events():
    sim = Simulator()
    sim.schedule(0.5, _neutral)
    sim.schedule(0.6, _neutral).owner = object()
    assert sim.quiet_until(1.0)
    assert sim.quiet_until(1.0, touches=lambda owner: True, unowned_end=2.0)


def test_quiet_until_never_reaches_past_the_running_end():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append((sim.quiet_until(1.5), sim.quiet_until(2.5))))
    sim.run(until=2.0)
    assert seen == [(True, False)]
    assert sim.quiet_until(2.5)  # no run in progress


def linear_quiet_until(sim, t_end, touches=None, unowned_end=None) -> bool:
    """``quiet_until`` as a scan over every heap entry."""
    if sim._until is not None and t_end > sim._until:
        return False
    horizon = t_end if unowned_end is None else max(t_end, unowned_end)
    for time, _, handle in sim._heap:
        if time > horizon or handle._cancelled:
            continue
        owner = handle.owner
        if owner is None or (time <= t_end and (touches is None or touches(owner))):
            if not getattr(handle.callback, "_radio_neutral", False):
                return False
    return True


OWNERS = {"a": object(), "b": object()}
TOUCHES = {
    None: None,
    "a": lambda owner: owner is OWNERS["a"],
    "all": lambda owner: True,
    "none": lambda owner: False,
}
# Coarse times so that entries tie with each other and with the windows.
times = st.integers(0, 40).map(lambda k: k / 4)
events = st.lists(
    st.tuples(
        times,
        st.sampled_from([None, "a", "b"]),  # owner
        st.booleans(),  # cancelled
        st.booleans(),  # radio-neutral
    ),
    max_size=60,
)
queries = st.lists(
    st.tuples(
        times,
        st.sampled_from(list(TOUCHES)),
        st.one_of(st.none(), times),  # unowned_end
    ),
    min_size=1,
    max_size=8,
)


@given(events, queries, times, times)
@settings(max_examples=200, deadline=None)
def test_quiet_until_matches_a_scan_of_the_whole_heap(entries, asks, probe, until):
    """The pruned walk gives the linear scan's verdict on any heap: inside a
    bounded run (windows past its end included) and after it."""
    sim = Simulator()
    for time, owner, cancelled, neutral in entries:
        handle = sim.at(time, _neutral if neutral else (lambda: None))
        if owner is not None:
            handle.owner = OWNERS[owner]
        if cancelled:
            handle.cancel()

    def compare():
        for t_end, touches, unowned_end in asks:
            fn = TOUCHES[touches]
            assert sim.quiet_until(t_end, fn, unowned_end) == linear_quiet_until(
                sim, t_end, fn, unowned_end
            ), (t_end, touches, unowned_end)

    probe = min(probe, until)
    sim.at(probe, compare)
    sim.run(until=until)
    compare()

"""Tests for the generator-process layer (timeouts, signals, composition)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupted,
    Process,
    ProcessError,
    Signal,
    Simulator,
    Timeout,
    spawn,
)


def test_timeout_sequencing():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield Timeout(1.5)
        trace.append(("mid", sim.now))
        yield Timeout(0.5)
        trace.append(("end", sim.now))

    spawn(sim, proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.5), ("end", 2.0)]


def test_process_return_value_and_done_signal():
    sim = Simulator()

    def worker():
        yield Timeout(1.0)
        return 42

    p = spawn(sim, worker())
    results = []
    p.done_signal._subscribe(results.append)
    sim.run()
    assert p.value == 42 and not p.alive
    assert results == [42]


def test_signal_wakes_all_waiters_with_value():
    sim = Simulator()
    sig = Signal("data")
    got = []

    def waiter(tag):
        value = yield sig
        got.append((tag, value, sim.now))

    spawn(sim, waiter("a"))
    spawn(sim, waiter("b"))
    sim.schedule(2.0, sig.fire, "hello")
    sim.run()
    assert sorted(got) == [("a", "hello", 2.0), ("b", "hello", 2.0)]


def test_signal_is_edge_triggered():
    sim = Simulator()
    sig = Signal()
    got = []

    def late_waiter():
        yield Timeout(5.0)  # subscribe after the fire
        value = yield sig
        got.append(value)

    spawn(sim, late_waiter())
    sim.schedule(1.0, sig.fire, "first")
    sim.schedule(10.0, sig.fire, "second")
    sim.run()
    assert got == ["second"]


def test_wait_on_other_process_receives_its_return():
    sim = Simulator()

    def child():
        yield Timeout(3.0)
        return "payload"

    def parent():
        c = spawn(sim, child())
        value = yield c
        return (value, sim.now)

    p = spawn(sim, parent())
    sim.run()
    assert p.value == ("payload", 3.0)


def test_wait_on_finished_process_resumes_immediately():
    sim = Simulator()

    def child():
        return "done"
        yield  # pragma: no cover

    def parent():
        c = spawn(sim, child())
        yield Timeout(5.0)  # child long dead by now
        value = yield c
        return (value, sim.now)

    p = spawn(sim, parent())
    sim.run()
    assert p.value == ("done", 5.0)


def test_anyof_returns_first_completion_and_cancels_rest():
    sim = Simulator()
    sig = Signal()

    def proc():
        index, value = yield AnyOf([sig, Timeout(10.0)])
        return (index, value, sim.now)

    p = spawn(sim, proc())
    sim.schedule(2.0, sig.fire, "won")
    sim.run()
    assert p.value == (0, "won", 2.0)
    assert sim.now == 2.0  # losing timeout was cancelled, clock never hit 10


def test_anyof_timeout_side():
    sim = Simulator()
    sig = Signal()

    def proc():
        index, _ = yield AnyOf([sig, Timeout(1.0)])
        return index

    p = spawn(sim, proc())
    sim.run()
    assert p.value == 1
    assert sig.waiter_count == 0  # signal subscription cleaned up


def test_allof_gathers_all_values_in_member_order():
    sim = Simulator()

    def proc():
        values = yield AllOf([Timeout(2.0), Timeout(1.0)])
        return (values, sim.now)

    p = spawn(sim, proc())
    sim.run()
    assert p.value == ([None, None], 2.0)


def test_interrupt_raises_inside_generator():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield Timeout(100.0)
        except Interrupted as exc:
            caught.append(exc.cause)
            yield Timeout(1.0)
        return "recovered"

    p = spawn(sim, proc())
    sim.schedule(2.0, p.interrupt, "busy-channel")
    sim.run()
    assert caught == ["busy-channel"]
    assert p.value == "recovered"
    assert sim.now == 3.0


def test_unhandled_interrupt_terminates_process():
    sim = Simulator()

    def proc():
        yield Timeout(100.0)

    p = spawn(sim, proc())
    sim.schedule(1.0, p.interrupt)
    sim.run()
    assert not p.alive and p.value is None


def test_stop_kills_without_raising():
    sim = Simulator()
    progressed = []

    def proc():
        yield Timeout(10.0)
        progressed.append(True)

    p = spawn(sim, proc())
    sim.schedule(1.0, p.stop)
    sim.run()
    assert not p.alive and not progressed


def test_yielding_garbage_raises_process_error():
    sim = Simulator()

    def proc():
        yield "not a condition"

    spawn(sim, proc())
    with pytest.raises(ProcessError):
        sim.run()


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_empty_composites_rejected():
    with pytest.raises(ValueError):
        AnyOf([])
    with pytest.raises(ValueError):
        AllOf([])


def test_nested_composites():
    sim = Simulator()
    sig = Signal()

    def proc():
        result = yield AllOf([Timeout(1.0), AnyOf([sig, Timeout(2.0)])])
        return (result[1], sim.now)

    p = spawn(sim, proc())
    sim.run()
    assert p.value == ((1, None), 2.0)


def test_process_events_carry_its_owner():
    sim = Simulator()
    owner = object()

    def gen():
        yield Timeout(1.0)

    Process(sim, gen(), owner=owner)
    assert [h.owner for _, _, h in sim._heap] == [owner]  # the start
    sim.step()
    assert [h.owner for _, _, h in sim._heap] == [owner]  # the timeout
    Process(sim, gen())
    assert [h.owner for _, _, h in sorted(sim._heap)] == [None, owner]

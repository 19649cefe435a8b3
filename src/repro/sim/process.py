"""Generator-based processes on top of the event kernel (mini-SimPy).

MAC protocols are naturally written as sequential control flow ("wait for the
poll message, then transmit, then sleep until the next cycle") rather than as
callback spaghetti.  This module provides just enough coroutine machinery to
express that: a :class:`Process` drives a generator that yields *wait
conditions*:

``Timeout(dt)``
    resume after ``dt`` simulated seconds.
``Signal``
    a broadcastable condition; ``yield sig`` resumes when ``sig.fire(value)``
    is called, receiving ``value`` as the result of the ``yield``.
``AnyOf([...])`` / ``AllOf([...])``
    composite waits.
``Process``
    yielding another process waits for its completion and receives its
    return value.

Processes may be interrupted (:meth:`Process.interrupt`), which raises
:class:`Interrupted` inside the generator — S-MAC uses this to abort a
carrier-sense wait when the medium goes busy.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

from .kernel import Simulator

__all__ = [
    "Timeout",
    "Signal",
    "AnyOf",
    "AllOf",
    "Process",
    "Interrupted",
    "ProcessError",
    "spawn",
]


class ProcessError(RuntimeError):
    """Raised when a process yields something the scheduler cannot wait on."""


class Interrupted(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries whatever was passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Wait condition: resume after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay})"


class Signal:
    """A broadcast wait condition.

    Any number of processes may wait on the same signal; a single
    :meth:`fire` wakes all of them.  A signal can fire repeatedly; waiters
    registered after a fire wait for the *next* fire (edge-triggered).
    """

    __slots__ = ("name", "_waiters", "fire_count", "last_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []
        self.fire_count = 0
        self.last_value: Any = None

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters with *value*; returns how many woke."""
        waiters, self._waiters = self._waiters, []
        self.fire_count += 1
        self.last_value = value
        for wake in waiters:
            wake(value)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def _subscribe(self, wake: Callable[[Any], None]) -> Callable[[], None]:
        self._waiters.append(wake)

        def unsubscribe() -> None:
            try:
                self._waiters.remove(wake)
            except ValueError:
                pass

        return unsubscribe

    def __repr__(self) -> str:  # pragma: no cover
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class AnyOf:
    """Composite wait: resume when the first member condition completes.

    The yield result is ``(index, value)`` of the member that completed.
    """

    def __init__(self, conditions: Iterable[Any]):
        self.conditions = list(conditions)
        if not self.conditions:
            raise ValueError("AnyOf requires at least one condition")


class AllOf:
    """Composite wait: resume when every member condition has completed.

    The yield result is the list of member values in member order.
    """

    def __init__(self, conditions: Iterable[Any]):
        self.conditions = list(conditions)
        if not self.conditions:
            raise ValueError("AllOf requires at least one condition")


ProcessGen = Generator[Any, Any, Any]

# A "resume" continuation takes (value, exception-or-None).
Resume = Callable[[Any, BaseException | None], None]
# Arming a condition returns a cancel thunk that disarms every timer /
# subscription the condition installed.
Cancel = Callable[[], None]


class Process:
    """Drives a generator on a :class:`Simulator`.

    The process starts immediately: its first step runs at the current
    simulation time via a zero-delay event (preserving FIFO fairness among
    processes spawned in the same instant).  *owner* becomes the
    :attr:`~repro.sim.kernel.EventHandle.owner` of every event the process
    schedules for itself (its start and its timeouts).
    """

    def __init__(
        self, sim: Simulator, generator: ProcessGen, name: str = "", owner: Any = None
    ):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self.owner = owner
        self.alive = True
        self.value: Any = None  # return value once finished
        self.done_signal = Signal(f"{self.name}.done")
        self._cancel_wait: Cancel | None = None
        start = sim.schedule(0.0, self._step, None, None)
        start.owner = owner
        self._cancel_wait = start.cancel

    # -- public control ------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupted` inside the process at the current time."""
        if not self.alive:
            return
        self._disarm()
        self._step(None, Interrupted(cause))

    def stop(self) -> None:
        """Terminate the process without raising inside it (hard kill)."""
        if not self.alive:
            return
        self._disarm()
        self.alive = False
        self._gen.close()
        self.done_signal.fire(None)

    # -- generator stepping ---------------------------------------------------

    def _disarm(self) -> None:
        if self._cancel_wait is not None:
            self._cancel_wait()
            self._cancel_wait = None

    def _step(self, value: Any, exc: BaseException | None) -> None:
        if not self.alive:
            return
        self._cancel_wait = None
        try:
            if exc is not None:
                condition = self._gen.throw(exc)
            else:
                condition = self._gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.value = stop.value
            self.done_signal.fire(stop.value)
            return
        except Interrupted:
            # Process chose not to handle its interruption: treat as a stop.
            self.alive = False
            self.done_signal.fire(None)
            return
        self._cancel_wait = self._arm(condition, self._step)

    # -- wait machinery -------------------------------------------------------

    def _arm(self, condition: Any, resume: Resume) -> Cancel:
        """Arm *condition*, calling ``resume(value, exc)`` once on completion.

        Returns a cancel thunk that disarms everything the condition set up.
        """
        if isinstance(condition, Timeout):
            handle = self.sim.schedule(condition.delay, resume, None, None)
            handle.owner = self.owner
            return handle.cancel
        if isinstance(condition, Signal):
            return condition._subscribe(lambda v: resume(v, None))
        if isinstance(condition, Process):
            if not condition.alive:
                handle = self.sim.schedule(0.0, resume, condition.value, None)
                handle.owner = self.owner
                return handle.cancel
            return condition.done_signal._subscribe(lambda v: resume(v, None))
        if isinstance(condition, AnyOf):
            return self._arm_any(condition, resume)
        if isinstance(condition, AllOf):
            return self._arm_all(condition, resume)
        raise ProcessError(
            f"process {self.name!r} yielded unwaitable object {condition!r}"
        )

    def _arm_any(self, cond: AnyOf, resume: Resume) -> Cancel:
        cancels: list[Cancel] = []
        state = {"done": False}

        def cancel_all() -> None:
            state["done"] = True
            for c in cancels:
                c()

        def member(index: int) -> Resume:
            def member_resume(value: Any, exc: BaseException | None) -> None:
                if state["done"]:
                    return
                cancel_all()
                resume((index, value), exc)

            return member_resume

        for i, sub in enumerate(cond.conditions):
            cancels.append(self._arm(sub, member(i)))
        return cancel_all

    def _arm_all(self, cond: AllOf, resume: Resume) -> Cancel:
        cancels: list[Cancel] = []
        n = len(cond.conditions)
        state = {"remaining": n, "done": False}
        results: list[Any] = [None] * n

        def cancel_all() -> None:
            state["done"] = True
            for c in cancels:
                c()

        def member(index: int) -> Resume:
            def member_resume(value: Any, exc: BaseException | None) -> None:
                if state["done"]:
                    return
                if exc is not None:
                    cancel_all()
                    resume(None, exc)
                    return
                results[index] = value
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    state["done"] = True
                    resume(results, None)

            return member_resume

        for i, sub in enumerate(cond.conditions):
            cancels.append(self._arm(sub, member(i)))
        return cancel_all

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name!r} {'alive' if self.alive else 'done'}>"


def spawn(sim: Simulator, generator: ProcessGen, name: str = "") -> Process:
    """Convenience constructor mirroring ``simpy.Environment.process``."""
    return Process(sim, generator, name=name)

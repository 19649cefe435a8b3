"""Top-level worker functions for the runner-resilience tests.

These live in an importable module (not inside a test function) because the
self-healing executor re-resolves ``"tests.experiments._resilience_workers:fn"``
inside each forked worker — closures would not survive the trip.  Run tests
with the repo root on ``PYTHONPATH`` (pytest's rootdir conftest handles it).

Cross-process state (how many attempts happened so far) is carried in a
scratch file named by the trial kwargs, so retries are observable from the
parent without shared memory.
"""

from __future__ import annotations

import os
import signal
import time


def echo(value: int = 0) -> dict:
    """Deterministic happy-path worker."""
    return {"value": value, "square": value * value}


def boom(value: int = 0) -> dict:
    """Always raises — exercises retry-then-skip."""
    raise RuntimeError(f"boom({value})")


def sleepy(seconds: float = 60.0, value: int = 0) -> dict:
    """Outlives any sane per-trial timeout — exercises hang detection."""
    time.sleep(seconds)
    return {"value": value}


def die(value: int = 0) -> dict:
    """Exits without a word (as a segfault or OOM-kill would) — exercises
    silently-dead worker detection via pipe EOF."""
    os.kill(os.getpid(), signal.SIGKILL)
    return {"value": value}  # pragma: no cover - unreachable


def slow_echo(value: int = 0, seconds: float = 0.25, marker_dir: str | None = None) -> dict:
    """Slow deterministic worker for the kill/resume test.

    Touches ``marker_dir/exec-<value>`` *before* sleeping, so the test can
    count how many times each trial actually executed across a kill+resume.
    """
    if marker_dir:
        with open(os.path.join(marker_dir, f"exec-{value}"), "ab") as fh:
            fh.write(b"x")
            fh.flush()
    time.sleep(seconds)
    return {"value": value, "square": value * value}


def flaky(counter_path: str, fail_times: int = 1, value: int = 0) -> dict:
    """Fail the first *fail_times* attempts, then succeed.

    Attempt count persists in *counter_path* (one byte appended per call) so
    each forked attempt sees how many came before it.
    """
    with open(counter_path, "ab") as fh:
        fh.write(b"x")
        fh.flush()
    attempts = os.path.getsize(counter_path)
    if attempts <= fail_times:
        raise RuntimeError(f"flaky attempt {attempts} of {fail_times} failing")
    return {"value": value, "attempts": attempts}


def interrupted(counter_path: str, interrupt_times: int = 1, value: int = 0) -> dict:
    """Raise ``KeyboardInterrupt`` (a Ctrl-C inside the trial) on the first
    *interrupt_times* attempts, then succeed; attempts are counted in
    *counter_path* as in :func:`flaky`."""
    with open(counter_path, "ab") as fh:
        fh.write(b"x")
        fh.flush()
    attempts = os.path.getsize(counter_path)
    if attempts <= interrupt_times:
        raise KeyboardInterrupt(f"interrupted attempt {attempts}")
    return {"value": value, "attempts": attempts}

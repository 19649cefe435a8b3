"""The fill scan against the per-request reference scan.

Skipping a sensor's sibling requests and the sensors a slot's group has
already refused, and folding occupancy into the oracle verdict, must not
move anything: on random clusters and configurations both scans, each on
its own fresh oracle, produce the same slots, deliveries, write-offs,
failovers, attempt counts, ``query_count`` and telemetry.
"""

from __future__ import annotations

import hashlib
from functools import partial

from hypothesis import assume, given, settings, strategies as st
import pytest

from repro.core import OnlinePollingScheduler
from repro.obs import Telemetry
from repro.topology.deployment import uniform_square

from .reference_scheduler import ReferenceScheduler
from .test_scheduler_goldens import (
    CASES,
    GOLDEN,
    Case,
    build_scheduler,
    drive_external,
    run_case,
    scheduler_outputs,
)


def traced_outputs(case: Case, cls) -> tuple:
    tel = Telemetry()
    scheduler = build_scheduler(case, partial(cls, telemetry=tel))
    if case.external:
        elapsed = drive_external(scheduler, case.loss_p, case.seed)
    else:
        elapsed = scheduler.run().slots_elapsed
    return (
        scheduler_outputs(scheduler, elapsed),
        [span.dump() for span in tel.spans],
        [event.dump() for event in tel.timeline],
    )


def drawable(n: int, seed: int) -> bool:
    """Whether ``uniform_square`` finds a connected deployment; it gives up
    after 200 draws (8 of the (n, seed) pairs below, 6 sensors at seed 181
    among them)."""
    try:
        uniform_square(n, seed=seed)
    except RuntimeError:
        return False
    return True


@st.composite
def random_cases(draw) -> Case:
    loss_p = draw(st.sampled_from([0.0, 0.2, 0.5]))
    n, seed = draw(st.integers(6, 40)), draw(st.integers(0, 500))
    assume(drawable(n, seed))
    return Case(
        n=n,
        seed=seed,
        m=draw(st.integers(1, 3)),
        order=draw(st.sampled_from(["index", "deep-first", "shallow-first"])),
        loss_p=loss_p,
        retry_limit=draw(st.sampled_from([None, 1, 2, 4])) if loss_p else None,
        dead_after_misses=draw(st.sampled_from([None, 1, 2, 3])) if loss_p else None,
        backups=draw(st.booleans()),
        external=draw(st.booleans()),
    )


@given(random_cases())
@settings(max_examples=40, deadline=None)
def test_scan_matches_reference(case):
    assert traced_outputs(case, OnlinePollingScheduler) == traced_outputs(
        case, ReferenceScheduler
    )


@pytest.mark.parametrize("case", CASES[::3], ids=lambda c: c.id)
def test_reference_reproduces_goldens(case):
    """The reference is the scan the goldens were recorded with."""
    outputs = run_case(case, ReferenceScheduler)
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == GOLDEN[case.id]

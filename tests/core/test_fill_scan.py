"""The rules the fill scan's bookkeeping rests on.

The scan keeps each sensor's ACTIVE requests in a queue at the sensor's
fixed scan rank, the ranks with any ACTIVE request in a bitmask, and per
slot group the ranks whose first hop that group refused.  Each test below
pins one rule on a seeded cluster where breaking it changes an output; the
full outputs are compared with the per-request reference scan, which keeps
none of that bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.core import RequestPool
from repro.topology import HEAD

from .reference_scheduler import ReferenceScheduler
from .test_scheduler_goldens import (
    CLUSTERS,
    ORDERS,
    Case,
    _routing,
    build_scheduler,
    scheduler_outputs,
)


def run_both(case: Case):
    """The scan and the reference, each run on its own fresh oracle."""
    scan = build_scheduler(case)
    ref = build_scheduler(case, ReferenceScheduler)
    outputs = [
        scheduler_outputs(s, s.run().slots_elapsed) for s in (scan, ref)
    ]
    return scan, ref, outputs


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n, seed", CLUSTERS)
def test_every_scan_order_keeps_a_sensors_requests_together(n, seed, order):
    """A sensor has one scan rank only if every order lists its requests
    consecutively, and its queue is sorted by request id only if they come
    in that order.  (All three orders break ties by request id.)"""
    _, plan, _ = _routing(n, seed, 2)
    pool = RequestPool(plan, order=order)
    sensors = [r.sensor for r in pool]
    runs = [s for i, s in enumerate(sensors) if i == 0 or s != sensors[i - 1]]
    assert len(runs) == len(set(sensors))
    for sensor in set(sensors):
        ids = [r.request_id for r in pool if r.sensor == sensor]
        assert ids == sorted(ids)


def test_an_insert_asks_again_the_sensors_the_smaller_group_refused():
    """Slot groups recur within a phase, so slot t's group may already have
    refused a sensor's first hop at an earlier slot.  When an insert grows
    the group, that sensor is asked about the grown group: the verdict is
    new to the oracle, so skipping the sensor keeps this case's schedule but
    asks one group fewer (20 queries where the per-request scan asks 21)."""
    scan, ref, (got, want) = run_both(Case(8, 2, 3, loss_p=0.3))
    assert got == want
    assert scan.oracle.query_count == ref.oracle.query_count == 21


def test_a_failover_clears_the_refusals_of_the_old_first_hop():
    """Sensor 2's first hop (2, 3) is refused by the group ``((6, HEAD),)``.
    At slot 10 the sensor fails over to (2, 4, 6, HEAD), whose first hop
    that group accepts, and its next request starts at slot 12 under that
    group, as in the per-request scan."""
    case = Case(7, 16, 2, loss_p=0.3, retry_limit=1, backups=True)
    scan, _, (got, want) = run_both(case)
    assert got == want
    event = scan.failover_events[-1]
    assert (event.slot, event.sensor, event.old_path, event.new_path) == (
        10, 2, (2, 3, HEAD), (2, 4, 6, HEAD)
    )
    verdicts = scan.oracle._seq_memo[((6, HEAD),)]
    assert verdicts[(2, 3)] is False and verdicts[(2, 4)] is True
    assert [(tx.link, tx.request_id, tx.hop_index) for tx in scan.schedule.slots[12]] == [
        ((6, HEAD), 4, 2),
        ((2, 4), 5, 0),
    ]


def test_a_retry_exhausted_failover_restamps_the_request_it_loses():
    """Request 3 exhausts its one attempt on (1, 3, 5, HEAD).  Its sensor
    fails over to (1, 0, HEAD) while the request is being lost, before it is
    back in the sensor's queue, so the re-stamp must reach it there: it is
    re-polled on the new path at once."""
    case = Case(6, 0, 2, loss_p=0.3, retry_limit=1, backups=True)
    scan, _, (got, want) = run_both(case)
    assert got == want
    (event,) = scan.failover_events
    assert (event.slot, event.sensor, event.reason) == (6, 1, "retry-exhausted")
    assert event.new_path == (1, 0, HEAD)
    assert [
        [(tx.link, tx.request_id) for tx in scan.schedule.slots[s]] for s in (6, 7)
    ] == [[((1, 0), 3)], [((0, HEAD), 3)]]

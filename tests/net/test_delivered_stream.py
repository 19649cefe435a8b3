"""Both harnesses check the delivered stream at the end of a run.

A packet can reach a head at most once, and the heads can collect no more
packets than the sensors generated (``validate.check_delivered_stream``).
Each test makes a head record one delivery twice and expects exactly one
``mac.delivery-duplicate``.  The checks scope the monitor to ``warn``, so
they also run under ``REPRO_VALIDATE=strict``.
"""

import pytest

from repro import validate
from repro.mac.pollmac import PollingClusterMac
from repro.net import MultiClusterConfig, run_multicluster_simulation
from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation


@pytest.fixture
def one_delivery_twice(monkeypatch):
    """Every head's ``_head_receive``, with the first delivery any head
    accepts recorded a second time."""
    original = PollingClusterMac._head_receive
    doubled = []

    def receive(mac, frame, now):
        before = len(mac.deliveries)
        original(mac, frame, now)
        if not doubled and len(mac.deliveries) > before:
            doubled.append(mac.deliveries[-1])
            original(mac, frame, now)

    monkeypatch.setattr(PollingClusterMac, "_head_receive", receive)
    return doubled


def test_single_cluster_run_reports_a_duplicate_delivery(one_delivery_twice):
    with validate.warn(), pytest.warns(validate.InvariantWarning):
        res = run_polling_simulation(PollingSimConfig(n_sensors=10, n_cycles=2, seed=1))
    assert len(one_delivery_twice) == 1
    assert [v.invariant for v in res.violations] == ["mac.delivery-duplicate"]


def test_field_run_reports_a_duplicate_delivery(one_delivery_twice):
    with validate.warn(), validate.MONITOR.capture() as found:
        with pytest.warns(validate.InvariantWarning):
            run_multicluster_simulation(MultiClusterConfig(n_cycles=2, seed=0))
    assert len(one_delivery_twice) == 1
    assert [v.invariant for v in found] == ["mac.delivery-duplicate"]

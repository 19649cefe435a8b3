"""Tests for seeded RNG streams, the tracer, and unit helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import RngStreams, Tracer, derive_seed
from repro.sim.rng import FAULT_STREAM, fault_rng
from repro.sim.units import (
    DEFAULT_NOISE_FLOOR_W,
    bytes_to_bits,
    dbm_to_watts,
    transmission_time,
    watts_to_dbm,
)


# --- rng ----------------------------------------------------------------------

def test_same_stream_name_returns_same_generator():
    streams = RngStreams(1)
    assert streams.get("x") is streams.get("x")


def test_streams_with_same_seed_reproduce():
    a = RngStreams(99).get("traffic").random(10)
    b = RngStreams(99).get("traffic").random(10)
    assert (a == b).all()


def test_different_names_give_different_sequences():
    streams = RngStreams(0)
    a = streams.get("a").random(8)
    b = streams.get("b").random(8)
    assert not (a == b).all()


def test_fork_is_independent_of_parent_consumption():
    parent1 = RngStreams(7)
    parent1.get("main").random(100)  # consume a lot
    child1 = parent1.fork("w").get("s").random(5)
    child2 = RngStreams(7).fork("w").get("s").random(5)
    assert (child1 == child2).all()


@given(st.integers(0, 2**31), st.text(max_size=20), st.text(max_size=20))
def test_derive_seed_deterministic_and_in_range(base, a, b):
    s1 = derive_seed(base, a, b)
    s2 = derive_seed(base, a, b)
    assert s1 == s2
    assert 0 <= s1 < 2**63


def test_derive_seed_order_sensitive():
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


# --- fault stream -------------------------------------------------------------


def test_fault_stream_is_independent_of_other_streams():
    # Draining the deployment/traffic streams must not shift the fault
    # stream (and vice versa): adding a FaultPlan cannot perturb where
    # sensors land or when packets arrive.
    streams = RngStreams(42)
    streams.get("deployment").random(1000)
    streams.get("traffic").random(1000)
    a = streams.faults("link", 3, 7).random(8)
    b = RngStreams(42).faults("link", 3, 7).random(8)
    assert (a == b).all()


def test_fault_rng_matches_streams_faults():
    a = fault_rng(42, "link", 3, 7).random(8)
    b = RngStreams(42).faults("link", 3, 7).random(8)
    assert (a == b).all()


def test_fault_rng_distinct_per_name():
    a = fault_rng(0, "link", 0, 1).random(8)
    b = fault_rng(0, "link", 1, 0).random(8)
    assert not (a == b).all()


def test_fault_stream_does_not_collide_with_plain_stream():
    # A user stream literally named "faults/link/0/1" is the same key by
    # construction — document that the prefix is the namespace; distinct
    # base names stay distinct.
    a = fault_rng(5, "x").random(4)
    b = RngStreams(5).get("x").random(4)
    assert not (a == b).all()
    assert FAULT_STREAM == "faults"


# --- tracer -------------------------------------------------------------------

def test_tracer_counts_without_subscribers():
    t = Tracer()
    t.count("rx_ok")
    t.count("rx_ok")
    t.count("tx")
    assert t.counts == {"rx_ok": 2, "tx": 1}
    assert t.counts["rx_collision"] == 0  # unseen kinds read zero


# --- units --------------------------------------------------------------------

def test_80_byte_packet_at_200kbps_is_3_2_ms():
    assert transmission_time(80, 200_000.0) == pytest.approx(3.2e-3)


def test_bytes_to_bits():
    assert bytes_to_bits(10) == 80


def test_transmission_time_validation():
    with pytest.raises(ValueError):
        transmission_time(-1, 200_000.0)
    with pytest.raises(ValueError):
        transmission_time(80, 0.0)


def test_dbm_round_trip():
    for dbm in (-101.0, -30.0, 0.0, 20.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm)


def test_noise_floor_matches_minus_101_dbm():
    assert watts_to_dbm(DEFAULT_NOISE_FLOOR_W) == pytest.approx(-101.0)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)

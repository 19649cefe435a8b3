"""Unit tests for the typed metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import MetricsRegistry


def test_counter_increments_and_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("mac.retries")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    g = reg.gauge("routing.max_load")
    assert g.value is None
    g.set(3.0)
    g.set(2.0)
    assert g.value == 2.0


def test_histogram_summary_statistics():
    reg = MetricsRegistry()
    h = reg.histogram("mac.group_size")
    for v in (2.0, 1.0, 3.0):
        h.observe(v)
    assert h.count == 3
    assert h.total == 6.0
    assert h.min == 1.0
    assert h.max == 3.0
    assert h.mean == 2.0


def test_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert len(reg) == 1
    assert "a" in reg


def test_name_is_the_schema():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.gauge("x")


def test_snapshot_is_json_compatible_and_sorted():
    import json

    reg = MetricsRegistry()
    reg.counter("b").inc(2)
    reg.gauge("a").set(1.5)
    reg.histogram("c").observe(0.25)
    snap = reg.snapshot()
    assert list(snap) == ["a", "b", "c"]
    json.dumps(snap)  # must not raise
    assert snap["b"] == {"type": "counter", "value": 2}

"""Typed metrics for the telemetry layer: counters, gauges, histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments.  The
polling stack records into the registry of the *active* telemetry (see
:func:`repro.obs.current`); when telemetry is disabled no registry exists
and call sites skip recording behind a single ``enabled`` check.

Snapshots are plain JSON-compatible dicts, cheap to attach per duty cycle
(``PollingSimResult.telemetry``).  A sweep trial's metrics travel flattened,
one value per name, in :meth:`repro.obs.Telemetry.summary`.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count (retries, probes, slots...)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def dump(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (current δ, current blacklist size...)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def dump(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Summary statistics of an observed distribution.

    Keeps count/sum/min/max: enough for means and extremes without
    unbounded storage.
    """

    __slots__ = ("name", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def dump(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are dotted identifiers (``"mac.retries"``, ``"routing.probes"``).
    Re-registering a name with a different instrument type is an error —
    the name *is* the schema.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-compatible dump of every instrument's current state."""
        return {name: m.dump() for name, m in sorted(self._metrics.items())}

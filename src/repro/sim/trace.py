"""Per-kind PHY event counts.

Each :class:`~repro.radio.channel.RadioMedium` owns one :class:`Tracer`
and counts every transmission start and end, clean decode and collision
on it; the vector slot engine counts the slots it replays on the same
tracer.  A run's counts therefore start from zero with its medium.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["Tracer"]


class Tracer:
    """Event counts by kind.

    >>> t = Tracer()
    >>> t.count("phy_rx_ok")
    >>> t.counts["phy_rx_ok"]
    1
    """

    def __init__(self):
        self.counts: Counter[str] = Counter()

    def count(self, kind: str) -> None:
        """Add one event of *kind*."""
        self.counts[kind] += 1

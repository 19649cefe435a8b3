"""Frame formats and sizes shared by the MAC layers.

The paper fixes the data packet at 80 bytes including header and payload
(Sec. VI).  Control frames are sized in the ballpark of S-MAC's (RTS/CTS ~
10 bytes) and of a realistic polling message; only *relative* sizes matter
for the reproduced shapes, and every size is overridable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["FrameType", "Frame", "FrameSizes", "DEFAULT_SIZES", "BROADCAST_ADDR"]

BROADCAST_ADDR: int = -999
"""Link-layer broadcast (all listeners in range receive)."""

_frame_ids = itertools.count()


class FrameType(Enum):
    DATA = "data"
    POLL = "poll"  # cluster head -> all: who transmits this slot
    WAKEUP = "wakeup"  # cluster head -> all: duty cycle begins (inquiry)
    SLEEP = "sleep"  # cluster head -> all: duty cycle ends; next wake time
    ACK_REPORT = "ack"  # sensor -> head: alive + packet count (piggybacked)
    SYNC = "sync"  # S-MAC schedule synchronization
    RTS = "rts"
    CTS = "cts"
    MACK = "mack"  # S-MAC link-level ACK
    AODV = "aodv"  # routing control (RREQ/RREP/RERR payloads)


@dataclass(frozen=True)
class FrameSizes:
    """Frame sizes in bytes; airtime = size * 8 / bitrate."""

    data: int = 80  # paper Sec. VI: fixed 80 bytes incl. header
    poll: int = 16
    wakeup: int = 12
    sleep: int = 12
    ack_report: int = 12
    sync: int = 9  # S-MAC paper's SYNC size
    rts: int = 10
    cts: int = 10
    mack: int = 10
    aodv: int = 24

    def of(self, ftype: FrameType) -> int:
        return {
            FrameType.DATA: self.data,
            FrameType.POLL: self.poll,
            FrameType.WAKEUP: self.wakeup,
            FrameType.SLEEP: self.sleep,
            FrameType.ACK_REPORT: self.ack_report,
            FrameType.SYNC: self.sync,
            FrameType.RTS: self.rts,
            FrameType.CTS: self.cts,
            FrameType.MACK: self.mack,
            FrameType.AODV: self.aodv,
        }[ftype]


DEFAULT_SIZES = FrameSizes()


@dataclass(frozen=True)
class Frame:
    """One over-the-air frame."""

    ftype: FrameType
    src: int
    dst: int  # link-layer destination (BROADCAST_ADDR for broadcasts)
    size_bytes: int
    payload: Any = None
    frame_id: int = field(default_factory=lambda: next(_frame_ids))

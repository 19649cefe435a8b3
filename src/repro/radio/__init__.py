"""PHY substrate: propagation, the shared medium, radios, energy."""

from .channel import BITRATE_BPS, ActiveTransmission, RadioMedium
from .energy import EnergyMeter, EnergyParams, RadioState
from .packet import BROADCAST_ADDR, DEFAULT_SIZES, Frame, FrameSizes, FrameType
from .propagation import (
    FreeSpace,
    LogNormalShadowing,
    TwoRayGround,
    range_for_threshold,
)
from .transceiver import RadioError, Transceiver

__all__ = [
    "FreeSpace",
    "TwoRayGround",
    "LogNormalShadowing",
    "range_for_threshold",
    "RadioMedium",
    "ActiveTransmission",
    "BITRATE_BPS",
    "Transceiver",
    "RadioError",
    "EnergyParams",
    "EnergyMeter",
    "RadioState",
    "Frame",
    "FrameType",
    "FrameSizes",
    "DEFAULT_SIZES",
    "BROADCAST_ADDR",
]

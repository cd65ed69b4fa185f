"""e1000e substrate: the simulated 82574L NIC and its mini-C driver."""

from .device import E1000EDevice
from .driver_source import DRIVER_NAME, DRIVER_SOURCE, driver_source_lines
from .netdev import E1000ENetDev, STAT_NAMES
from . import regs

__all__ = [
    "DRIVER_NAME",
    "DRIVER_SOURCE",
    "E1000EDevice",
    "E1000ENetDev",
    "STAT_NAMES",
    "driver_source_lines",
    "regs",
]

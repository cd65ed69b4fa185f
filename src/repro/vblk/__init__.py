"""repro.vblk: the second guarded device stack — a virtio-style block
device, its mini-C driver, per-driver -O3 contracts, the kernel-side
block request layer, and the blkblast workload generator."""

from .blaster import BlkBlastResult, BlockBlaster, PATTERNS, make_test_block
from .blkdev import (
    BlockRequestQueue,
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    STAT_NAMES,
    VblkBlockDev,
)
from .contracts import VBLK_CONTRACTS
from .device import VblkDevice
from .driver_source import DRIVER_NAME, DRIVER_SOURCE
from . import regs

__all__ = [
    "BlkBlastResult",
    "BlockBlaster",
    "BlockRequestQueue",
    "DRIVER_NAME",
    "DRIVER_SOURCE",
    "OP_FLUSH",
    "OP_READ",
    "OP_WRITE",
    "PATTERNS",
    "STAT_NAMES",
    "VBLK_CONTRACTS",
    "VblkBlockDev",
    "VblkDevice",
    "make_test_block",
    "regs",
]

"""Register map for the simulated virtio-style block device.

The layout borrows the split-virtqueue shape of virtio-blk — a
descriptor table plus paired avail/used rings — but flattens it into a
legacy MMIO register file so the guarded mini-C driver programs it the
same way it programs the e1000e: typed pointer stores through an
ioremap'd BAR.

Since the multi-queue rework the register file carries **five queue
pairs** laid out NVMe-style: block 0 is the admin/legacy pair and
blocks 1..4 are per-CPU I/O pairs.  Every block repeats the same
within-block layout at ``QBASE + q * QSTRIDE``, and block 0 lands
exactly on the historic single-queue offsets, so legacy host software
that programs DTBAL/AVT/UT keeps working unchanged.  I/O queues come into service through CREATE_IOQ
admin commands submitted on queue 0, never by doorbell alone.

512-byte sectors; five request types (read, write, flush on any queue;
create/delete-I/O-queue on the admin queue only).
"""

from __future__ import annotations

# Device control / status
VCTL = 0x0000
VSTS = 0x0004
CAP = 0x0008            # device capacity in sectors (read-only)
VNQMAX = 0x000C         # max I/O queue pairs the device supports (read-only)

# Interrupts (MSI-X-style: vector q <-> queue block q)
VICR = 0x0010           # aggregate cause; read clears the bits observed
VIMS = 0x0014           # interrupt mask set (write 1s to unmask)
VIMC = 0x0018           # interrupt mask clear (write 1s to mask)
VNQ = 0x001C            # I/O queue pairs currently created (read-only)

# Queue register blocks.  Block 0 = admin/legacy pair, blocks 1..4 =
# I/O pairs.  Block q occupies [QBASE + q*QSTRIDE, QBASE + (q+1)*QSTRIDE).
QBASE = 0x0020
QSTRIDE = 0x0040
MAX_IO_QUEUES = 4       # I/O queue pairs (block 0 not counted)
NUM_QUEUE_BLOCKS = MAX_IO_QUEUES + 1

# Within-block offsets (add to QBASE + q*QSTRIDE)
QDTBAL = 0x00           # descriptor table base, low 32 bits
QDTBAH = 0x04           # descriptor table base, high 32 bits
QDTLEN = 0x08           # descriptor table length in bytes
QAVBAL = 0x10           # avail ring base (driver -> device)
QAVBAH = 0x14
QAVH = 0x18             # avail head: next entry the device will fetch
QAVT = 0x1C             # avail tail: THE submission doorbell
QUBAL = 0x20            # used ring base (device -> driver)
QUBAH = 0x24
QUH = 0x28              # used head: next entry the driver will harvest
QUT = 0x2C              # used tail: device writes one past last completed
QVICR = 0x30            # per-queue cause, read-to-clear (own bit only)

# Legacy single-queue aliases == block 0 of the strided layout.
DTBAL = QBASE + QDTBAL  # 0x0020
DTBAH = QBASE + QDTBAH  # 0x0024
DTLEN = QBASE + QDTLEN  # 0x0028
AVBAL = QBASE + QAVBAL  # 0x0030
AVBAH = QBASE + QAVBAH  # 0x0034
AVH = QBASE + QAVH      # 0x0038
AVT = QBASE + QAVT      # 0x003C
UBAL = QBASE + QUBAL    # 0x0040
UBAH = QBASE + QUBAH    # 0x0044
UH = QBASE + QUH        # 0x0048
UT = QBASE + QUT        # 0x004C

# Statistics (read-only telemetry), above the queue blocks.
RDOPS = 0x0200          # completed read requests
WROPS = 0x0204          # completed write requests
FLOPS = 0x0208          # completed flush requests
SECR = 0x020C           # sectors read
SECW = 0x0210           # sectors written
DERR = 0x0214           # descriptor/DMA errors

# Register window size (BAR0)
BAR_SIZE = 0x1000

# VCTL bits
VCTL_RST = 1 << 0
VCTL_EN = 1 << 1

# VSTS bits
VSTS_READY = 1 << 0

# VICR bits: bit q = queue block q advanced its used ring.
VICR_USED = 1 << 0      # queue 0 (admin/legacy) completion
VICR_CFG = 1 << 31      # configuration change (unused; reserved)

# Request descriptor layout (32 bytes):
#   u64 sector; u64 buffer_addr; u32 length; u16 type; u8 status; u8 pad;
#   u64 reserved
VDESC_SIZE = 32
VDESC_TYPE_READ = 0
VDESC_TYPE_WRITE = 1
VDESC_TYPE_FLUSH = 2
# Admin-queue-only commands; qid travels in the sector field.
VDESC_TYPE_CREATE_IOQ = 3
VDESC_TYPE_DELETE_IOQ = 4
VDESC_STATUS_DD = 0x01  # descriptor done
VDESC_STATUS_ERR = 0x02 # device rejected the request

SECTOR_SIZE = 512
#: Largest single request the device accepts (8 sectors = 4 KiB).
MAX_IO_SECTORS = 8

# Default queue geometry (64 descriptors, matching the driver).
DEFAULT_QUEUE_ENTRIES = 64

# Default backing-store size: 16384 sectors = 8 MiB.
DEFAULT_CAPACITY_SECTORS = 16384


def qreg(queue: int, offset: int) -> int:
    """Absolute BAR offset of within-block register ``offset`` on ``queue``."""
    return QBASE + queue * QSTRIDE + offset


def vicr_q(queue: int) -> int:
    """The aggregate-VICR cause bit owned by queue block ``queue``."""
    return 1 << queue


def queue_block(offset: int) -> "tuple[int, int] | None":
    """Map an absolute BAR offset into ``(queue, within-block offset)``.

    Returns None for offsets outside the strided queue-block window.
    """
    rel = offset - QBASE
    if 0 <= rel < NUM_QUEUE_BLOCKS * QSTRIDE:
        return divmod(rel, QSTRIDE)
    return None


__all__ = [name for name in dir() if name.isupper()] + [
    "qreg", "vicr_q", "queue_block",
]

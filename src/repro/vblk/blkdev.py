"""Block-device glue: the kernel-side request layer between the block
stack and the (possibly protected) vblk driver module.

Models the slice of the Linux block layer the storage workload
exercises: bio buffer allocation (kmalloc), payload copy into the
request buffer (core-kernel memcpy — *not* guarded, because it is not
module code), and the call into the driver's submit path, which *is*
module code and runs under the guards.  ``BlockRequestQueue`` is the
block stack's side of the one user/kernel boundary
(:class:`~repro.kernel.syscall.SyscallBoundary`, which the packet
socket crosses too): per request the boundary charges syscall
entry/exit, block-layer traversal and the payload copy, rides out a
full queue, and runs the guarded submit.

Multi-queue dispatch happens here, blk-mq style: the blkdev is probed
with ``queues`` I/O pairs and every submission runs on the *calling
CPU's* queue (``1 + cpu % queues``) with no cross-queue locking — CPU
k's stream is queue k's stream end to end.  Because the device moves
data synchronously at each doorbell in global submission order, the
final media image is independent of the queue count; only queue-full
stalls (and therefore cycles) change with the mapping.
"""

from __future__ import annotations

from typing import Optional

from ..abi import to_signed32, to_signed64
from ..kernel.kernel import Kernel
from ..kernel.module_loader import LoadedModule
from ..kernel.syscall import SyscallBoundary, SyscallResult
from ..vm.machine import MachineModel
from . import regs
from .device import VblkDevice

# errno values the driver returns (negative).
ENODEV = 19

STAT_NAMES = (
    "reads",
    "writes",
    "flushes",
    "read_bytes",
    "write_bytes",
    "errors",
    "busy",
    "completions",
    "irq_count",
    "ring_space",
    "next_to_use",
    "next_to_clean",
    "data_sig",
    "capacity",
)

#: vblk_get_stat selector bases for the per-queue driver counters.
STAT_NQ = 14
STAT_Q_SUBMITTED = 20
STAT_Q_COMPLETED = 30

OP_READ = regs.VDESC_TYPE_READ
OP_WRITE = regs.VDESC_TYPE_WRITE
OP_FLUSH = regs.VDESC_TYPE_FLUSH


class VblkBlockDev:
    """One registered block disk backed by the driver module."""

    def __init__(self, kernel: Kernel, module: LoadedModule,
                 device: VblkDevice, queues: int = 1):
        if not 1 <= queues <= regs.MAX_IO_QUEUES:
            raise ValueError(
                f"queues must be 1..{regs.MAX_IO_QUEUES}, got {queues}"
            )
        self.kernel = kernel
        self.module = module
        self.device = device
        #: I/O queue pairs the driver brings up at probe; submissions on
        #: CPU k land on queue ``1 + k % queues``.
        self.queues = queues
        self._probed = False
        # Slot-keyed: re-probing after an eject replaces the hook instead
        # of stacking a stale one per recovery cycle.
        kernel.register_eject_hook(module.name, self._on_eject, slot="blkdev")
        #: /proc feed: per-queue device telemetry (pure host-side state,
        #: so rendering /proc never runs module code or moves the clock).
        kernel.blk_queue_stats = self.device.queue_stats

    def _on_eject(self, loaded: LoadedModule) -> None:
        """Quiesce the hardware before the journal frees the driver's
        rings: stop the queue engine, mask every completion vector, and
        drop in-flight requests on ALL queues, so no write-back touches
        rolled-back memory."""
        dev = self.device
        dev.vctl &= ~regs.VCTL_EN
        dev.vims = 0
        dev.vicr = 0
        for q in dev.queues:
            q.in_flight.clear()
        self._probed = False
        self.kernel.dmesg(
            f"vblk blkdev: quiesced {len(dev.queues)} queues after eject "
            f"of {loaded.name}"
        )

    def probe(self) -> None:
        """The PCI-subsystem callback: hand the driver its BAR and the
        number of I/O queue pairs to bring into service."""
        rc = self.kernel.run_function(
            self.module, "vblk_probe", [self.device.phys_base, self.queues]
        )
        if rc != 0:
            raise RuntimeError(f"vblk_probe failed: {rc}")
        self._probed = True

    def remove(self) -> None:
        if self._probed:
            self.kernel.run_function(self.module, "vblk_remove", [])
            self._probed = False

    def _queue_for_cpu(self) -> int:
        """blk-mq dispatch: the calling CPU's own queue, 1-based."""
        return 1 + (self.kernel.smp.current % self.queues)

    def _submit(self, buf: int, sector: int, length: int, op: int) -> int:
        rc = self.kernel.run_function(
            self.module, "vblk_submit_io",
            [buf, sector, length, op, self._queue_for_cpu()],
        )
        # The VM returns the unsigned i32 bit pattern; errnos are
        # negative, so re-sign it.
        return to_signed32(rc)

    def submit_read(self, sector: int, nsect: int = 1) -> tuple[int, bytes]:
        """Read ``nsect`` sectors; returns ``(rc, data)``.

        The bio buffer is kmalloc'd at the maximum request size (the
        contract the -O3 verifier trusts) and the device DMAs into it
        synchronously at the doorbell, so the data is ready when the
        driver's submit returns."""
        length = nsect * regs.SECTOR_SIZE
        alloc = self.kernel.kmalloc_allocator
        buf = alloc.kmalloc(regs.MAX_IO_SECTORS * regs.SECTOR_SIZE)
        try:
            rc = self._submit(buf, sector, length, OP_READ)
            data = b""
            if rc == 0:
                # Core-kernel copy out of the bio: native, unguarded.
                data = self.kernel.address_space.read_bytes(buf, length)
            return rc, data
        finally:
            alloc.kfree(buf)

    def submit_write(self, sector: int, payload: bytes) -> int:
        """Write whole sectors; the payload length must be a multiple of
        the sector size (the block layer never splits sectors)."""
        if not payload or len(payload) % regs.SECTOR_SIZE:
            raise ValueError("payload must be a whole number of sectors")
        alloc = self.kernel.kmalloc_allocator
        buf = alloc.kmalloc(regs.MAX_IO_SECTORS * regs.SECTOR_SIZE)
        # Core-kernel copy of the payload into the bio: native, unguarded.
        self.kernel.address_space.write_bytes(buf, payload)
        try:
            return self._submit(buf, sector, len(payload), OP_WRITE)
        finally:
            # The queue engine consumed the payload synchronously at the
            # doorbell, so the bio can be freed as soon as submit returns.
            alloc.kfree(buf)

    def flush(self) -> int:
        """Issue a cache-flush barrier (drains the submitting queue's
        write cache — the NVMe per-queue flush semantic)."""
        alloc = self.kernel.kmalloc_allocator
        # The contract says arg 0 is always a real request buffer; honour
        # it even though a flush moves no data.
        buf = alloc.kmalloc(regs.MAX_IO_SECTORS * regs.SECTOR_SIZE)
        try:
            return self._submit(buf, 0, 0, OP_FLUSH)
        finally:
            alloc.kfree(buf)

    def poll_completions(self) -> int:
        """Explicit harvest of every queue (the polling-mode service path)."""
        return self.kernel.run_function(self.module, "vblk_poll", [])

    def enable_interrupts(self) -> int:
        """Switch from polling to interrupt-driven completion harvest:
        one MSI-X-style vector per queue block (admin + each I/O pair),
        each bound to that queue's own ISR."""
        for qi in range(self.queues + 1):
            rc = self.kernel.run_function(
                self.module, "vblk_irq_enable_q",
                [qi, self.device.irq_lines[qi]],
            )
            if rc != 0:
                return to_signed32(rc)
        return 0

    def disable_interrupts(self) -> int:
        return self.kernel.run_function(self.module, "vblk_irq_disable", [])

    def ioctl_stat(self, which: int) -> int:
        """Read one stat through the /dev/vblk0 chardev path."""
        out = self.kernel.devices.ioctl("/dev/vblk0", which, b"", uid=0)
        return int.from_bytes(out, "little", signed=True)

    def stats(self) -> dict[str, int]:
        out = {}
        for i, name in enumerate(STAT_NAMES):
            out[name] = to_signed64(self.kernel.run_function(
                self.module, "vblk_get_stat", [i]))
        return out

    def queue_io_stats(self) -> list[dict[str, int]]:
        """Driver-side per-queue submit/complete counters (via the
        guarded ``vblk_get_stat`` path), one row per queue block."""
        rows = []
        for qi in range(regs.NUM_QUEUE_BLOCKS):
            rows.append({
                "queue": qi,
                "submitted": self.kernel.run_function(
                    self.module, "vblk_get_stat", [STAT_Q_SUBMITTED + qi]
                ),
                "completed": self.kernel.run_function(
                    self.module, "vblk_get_stat", [STAT_Q_COMPLETED + qi]
                ),
            })
        return rows

    def read_reg(self, reg: int) -> int:
        return self.kernel.run_function(self.module, "vblk_read_reg", [reg])


class BlockRequestQueue(SyscallBoundary):
    """The block stack's side of the syscall boundary
    (pread/pwrite/fsync-style).

    Each call crosses :class:`~repro.kernel.syscall.SyscallBoundary`,
    which charges what the packet socket charges and rides out a full
    queue the same way, then runs the guarded driver submit on the
    calling CPU's own queue.
    """

    def __init__(self, kernel: Kernel, blkdev: VblkBlockDev,
                 machine: Optional[MachineModel] = None,
                 max_retries: int = 1):
        super().__init__(kernel, blkdev.device, machine, max_retries)
        self.blkdev = blkdev

    def pread(self, sector: int, nsect: int = 1) -> SyscallResult:
        blkdev = self.blkdev
        return self._call("pread", nsect * regs.SECTOR_SIZE,
                          lambda: blkdev.submit_read(sector, nsect))

    def pwrite(self, sector: int, payload: bytes) -> SyscallResult:
        blkdev = self.blkdev
        return self._call("pwrite", len(payload),
                          lambda: (blkdev.submit_write(sector, payload), b""))

    def fsync(self) -> SyscallResult:
        blkdev = self.blkdev
        return self._call("fsync", 0, lambda: (blkdev.flush(), b""))


__all__ = [
    "ENODEV",
    "OP_FLUSH",
    "OP_READ",
    "OP_WRITE",
    "BlockRequestQueue",
    "STAT_NAMES",
    "STAT_NQ",
    "STAT_Q_COMPLETED",
    "STAT_Q_SUBMITTED",
    "VblkBlockDev",
]

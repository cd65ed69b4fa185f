"""blkblast: the user-level block-I/O test tool (the storage twin of
pktblast).

Drives mixed read/write/flush request streams through the block request
queue with seedable access patterns — sequential, uniformly random, and
hot-spot (most requests concentrated in a small window).  Every request
is derived purely from its stream sequence number and the seed, so the
round-robin CPU sharding reconstructs the exact single-CPU global order
for any CPU count (the pktblast determinism contract).

Under the NVMe-style multi-queue device each CPU owns its queue pair
end-to-end: the shard running on CPU ``k`` submits through the blkdev
layer onto I/O queue ``1 + (k % nq)`` with no cross-queue locking, and
harvests only that queue's completions.  Determinism across 1/2/4 CPUs
therefore no longer comes from draining one shared ring — it comes from
the device's completion-merge contract (per-queue FIFO, cross-queue
rotation seeded by ``merge_seed``) combined with data moving at
doorbell time in global submission order, which the round-robin shard
interleaving reproduces for any CPU count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from ..vm.machine import MachineModel
from . import regs
from .blkdev import BlockRequestQueue

PATTERNS = ("seq", "rand", "hotspot")

_MASK64 = (1 << 64) - 1


def _mix(seed: int, seq: int) -> int:
    """splitmix64-style stateless mixer: (seed, seq) -> 64 pseudo bits."""
    x = (seq + 1 + (seed * 0x9E3779B97F4A7C15)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def make_test_block(size: int, seq: int) -> bytes:
    """A deterministic payload: the sequence number tiled across the
    block (the storage analog of ``make_test_frame``)."""
    unit = struct.pack("<Q", seq & _MASK64)
    reps = (size + len(unit) - 1) // len(unit)
    return (unit * reps)[:size]


@dataclass(slots=True)
class BlkBlastResult:
    """One trial's measurements."""

    ops_requested: int
    ops_done: int
    reads: int
    writes: int
    flushes: int
    errors: int
    stalls: int
    bytes_read: int
    bytes_written: int
    total_cycles: float
    throughput_iops: float
    #: Per-request latencies in cycles (empty unless capture was on).
    latencies: list[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0


class BlockBlaster:
    """Drives one trial: N mixed requests through the request queue."""

    def __init__(
        self,
        queue: BlockRequestQueue,
        machine: Optional[MachineModel] = None,
    ):
        self.queue = queue
        self.machine = machine if machine is not None else queue.machine

    def blast(
        self,
        count: int,
        nsect: int = 2,
        pattern: str = "seq",
        seed: int = 1,
        read_frac: int = 50,
        flush_interval: int = 16,
        capture_latency: bool = False,
    ) -> BlkBlastResult:
        """Run ``count`` mixed requests of ``nsect`` sectors each.

        ``read_frac`` is the percentage of non-flush requests that read;
        every ``flush_interval``-th request is a flush barrier.
        """
        if pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}")
        if not 1 <= nsect <= regs.MAX_IO_SECTORS:
            raise ValueError(f"nsect must be 1..{regs.MAX_IO_SECTORS}")
        machine = self.machine
        queue = self.queue
        kernel = queue.kernel
        timing = kernel.vm.timing
        capacity = queue.blkdev.device.capacity_sectors
        span = max(capacity - nsect, 1)
        hot_window = max(span // 32, 1)
        hot_base = _mix(seed, 0) % max(span - hot_window, 1)
        length = nsect * regs.SECTOR_SIZE
        errors = 0
        reads = writes = flushes = 0
        bytes_read = bytes_written = 0
        stalls_before = queue.stalls
        latencies: list[float] = [] if capture_latency else None  # type: ignore[assignment]
        start_cc = timing.cc if timing is not None else 0

        def plan(seq: int) -> tuple[int, int]:
            if flush_interval and seq % flush_interval == flush_interval - 1:
                return regs.VDESC_TYPE_FLUSH, 0
            bits = _mix(seed, seq)
            op = (
                regs.VDESC_TYPE_READ
                if (bits >> 8) % 100 < read_frac
                else regs.VDESC_TYPE_WRITE
            )
            if pattern == "seq":
                sector = (seq * nsect) % span
            elif pattern == "rand":
                sector = (bits >> 16) % span
            else:  # hotspot: 90% of requests land in a 1/32 window
                if (bits >> 4) % 10 < 9:
                    sector = hot_base + (bits >> 16) % hot_window
                else:
                    sector = (bits >> 16) % span
            return op, sector

        def issue(seq: int) -> None:
            nonlocal errors, reads, writes, flushes, bytes_read, bytes_written
            op, sector = plan(seq)
            # The tool's own per-iteration work happens on the same
            # clock the device drains against.
            if timing is not None and machine is not None:
                timing.cc += machine.centi.userspace_per_packet
            if op == regs.VDESC_TYPE_FLUSH:
                result = queue.fsync()
                flushes += 1
            elif op == regs.VDESC_TYPE_READ:
                result = queue.pread(sector, nsect)
                reads += 1
                if result.rc == 0:
                    bytes_read += length
            else:
                result = queue.pwrite(sector, make_test_block(length, seq))
                writes += 1
                if result.rc == 0:
                    bytes_written += length
            if result.rc != 0:
                errors += 1
            if capture_latency:
                latencies.append(result.latency_cycles)

        kernel.smp.run_sharded(count, issue)
        total = (timing.cc - start_cc) / 100 if timing is not None else 0.0
        if machine is not None and total > 0:
            iops = count / machine.seconds(total)
        else:
            iops = 0.0
        return BlkBlastResult(
            ops_requested=count,
            ops_done=count - errors,
            reads=reads,
            writes=writes,
            flushes=flushes,
            errors=errors,
            stalls=queue.stalls - stalls_before,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            total_cycles=total,
            throughput_iops=iops,
            latencies=latencies or [],
        )


__all__ = ["BlkBlastResult", "BlockBlaster", "PATTERNS", "make_test_block"]

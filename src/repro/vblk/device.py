"""The simulated virtio-style block device (NVMe-style multi-queue).

Like the e1000e model, the device is the unguarded half of the driver
contract: an MMIO register window plus a DMA engine that fetches request
descriptors and moves sector data straight through physical memory.  DMA
accesses bypass the guard machinery *by construction* (the paper scopes
device-side protection to IOMMU/SR-IOV, §4 fn 3), so the guarded hot
path only pays for the driver's own descriptor and doorbell stores.

Queues are NVMe-shaped: block 0 is the admin/legacy pair and blocks
1..4 are I/O pairs, each a split-virtqueue in miniature — a descriptor
table, an avail ring the driver posts indexes into (per-queue AVT
doorbell), and a used ring the device writes completed indexes back to
(per-queue UT), each completion setting the descriptor's status byte
and raising that queue's MSI-X-style vector.  I/O queues come into
service only through CREATE_IOQ admin commands on queue 0; the admin
queue doubles as the legacy single-queue I/O path so historic host
software keeps working.

Each I/O queue owns an independent media channel (its own
``media_free_at`` horizon), so queues drain in parallel on the machine
clock — that queue independence, not faster media, is where multi-queue
throughput comes from.  Data still moves synchronously at doorbell
time, in global submission order, which is what makes the final
block-store image independent of the queue count and CPU count.

**Completion-merge contract**: within one processing pass, queue 0
drains first, then the I/O queues in a fixed rotation seeded by
``merge_seed`` (each queue internally FIFO by maturity).  Host-visible
cross-queue completion order is therefore a pure function of the
submission stream and the seed — never of wall-clock interleaving.

Timing: sector payloads drain at a flash-like fixed service rate.  With
a cycle clock (machine-model runs) completions land as simulated device
time elapses; without one, completion is immediate (functional mode).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Optional

from ..kernel.kernel import Kernel
from ..kernel.panic import MemoryFault
from . import regs

#: Sustained media rate: 400 MB/s (a modest SATA-flash device).
_MEDIA_BYTES_PER_SEC = 400_000_000
#: Fixed per-request service overhead (queue + firmware), seconds.
_REQUEST_OVERHEAD_SEC = 8e-6
#: A flush drains the write cache: costlier than any single request.
_FLUSH_OVERHEAD_SEC = 60e-6

#: A request descriptor: sector, buffer, length, type, status, pad, rsvd.
_DESC = struct.Struct("<QQIHBBQ")

_IO_TYPES = (
    regs.VDESC_TYPE_READ, regs.VDESC_TYPE_WRITE, regs.VDESC_TYPE_FLUSH,
)
_ADMIN_TYPES = (regs.VDESC_TYPE_CREATE_IOQ, regs.VDESC_TYPE_DELETE_IOQ)


class _QueuePair:
    """One SQ/CQ pair: ring registers + in-flight FIFO + media channel."""

    __slots__ = (
        "qid", "dtba", "dtlen", "avba", "avh", "avt", "uba", "uh", "ut",
        "created", "in_flight", "media_free_at",
        "doorbells", "fetched", "completed", "errors",
    )

    def __init__(self, qid: int):
        self.qid = qid
        self.reset()

    def reset(self) -> None:
        self.dtba = 0
        self.dtlen = 0
        self.avba = 0
        self.avh = 0
        self.avt = 0
        self.uba = 0
        self.uh = 0
        self.ut = 0
        #: I/O queues exist only after a CREATE_IOQ admin command.
        self.created = self.qid == 0
        # In-flight: [completion_cycle, ring_index, status, retried]
        self.in_flight: deque[list] = deque()
        #: Independent media channel horizon (cycles).
        self.media_free_at = 0.0
        self.doorbells = 0
        self.fetched = 0
        self.completed = 0
        self.errors = 0

    @property
    def entries(self) -> int:
        return self.dtlen // regs.VDESC_SIZE if self.dtlen else 0


class VblkDevice:
    """Register file + multi-queue DMA engine + sector backing store."""

    def __init__(
        self,
        kernel: Kernel,
        capacity_sectors: int = regs.DEFAULT_CAPACITY_SECTORS,
        clock: Optional[Callable[[], float]] = None,
        freq_hz: Optional[float] = None,
        queue_entries_max: int = 1024,
        merge_seed: int = 0,
    ):
        if capacity_sectors <= 0:
            raise ValueError("capacity must be positive")
        self.kernel = kernel
        self.capacity_sectors = capacity_sectors
        #: Returns "now" in CPU cycles; None = functional (untimed) mode.
        self.clock = clock
        self.freq_hz = freq_hz
        self.queue_entries_max = queue_entries_max
        #: Seeds the cross-queue rotation of the completion merge.
        self.merge_seed = merge_seed
        self.phys_base = kernel.register_mmio(self, regs.BAR_SIZE, "vblk")
        #: One MSI-X-style vector per queue block (admin + 4 I/O), all
        #: assigned by the "PCI subsystem" at attach time.
        self.irq_lines = [
            kernel.irq.allocate_line()
            for _ in range(regs.NUM_QUEUE_BLOCKS)
        ]
        #: Fault-injection hook (see :mod:`repro.faults`): may garble
        #: descriptor fetches, stall completions, drop used-ring
        #: write-backs, swallow doorbells, and stall completion queues.
        #: None = healthy hardware.
        self.fault_injector = None
        #: The media: never cleared by reset (a reset is not a secure erase).
        self.store = bytearray(capacity_sectors * regs.SECTOR_SIZE)
        trace = kernel.trace
        self._tp_fetch = trace.points["vblk:fetch"]
        self._tp_complete = trace.points["vblk:complete"]
        self._tp_doorbell = trace.point("vblk:doorbell", "vblk")
        self.reset()

    # -- device state --------------------------------------------------------

    @property
    def irq_line(self) -> int:
        """Legacy alias: the admin/legacy queue's vector."""
        return self.irq_lines[0]

    def reset(self) -> None:
        self.vctl = 0
        self.vims = 0
        self.vicr = 0
        self.queues = [_QueuePair(q) for q in range(regs.NUM_QUEUE_BLOCKS)]
        #: Queues in completion-merge order: admin first, then the I/O
        #: queues in a seeded rotation — the deterministic cross-queue
        #: contract the block layer's digest identity leans on.  Neither
        #: the queues nor ``merge_seed`` change before the next reset.
        n = regs.MAX_IO_QUEUES
        self._merge_order = [self.queues[0]] + [
            self.queues[(self.merge_seed + i) % n + 1] for i in range(n)]
        self.rdops = 0
        self.wrops = 0
        self.flops = 0
        self.sectors_read = 0
        self.sectors_written = 0
        #: Descriptor rejections (bad type/length/sector) — distinct from
        #: master aborts, which are bus-level DMA failures.
        self.desc_errors = 0
        #: DMA master aborts: the driver programmed a bogus bus address.
        self.dma_errors = 0

    @property
    def queue_entries(self) -> int:
        """Legacy alias: the admin/legacy queue's descriptor count."""
        return self.queues[0].entries

    @property
    def nq(self) -> int:
        """I/O queue pairs currently in service."""
        return sum(1 for q in self.queues[1:] if q.created)

    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _cycles_for_request(self, length: int, rtype: int) -> float:
        if self.freq_hz is None:
            return 0.0
        if rtype == regs.VDESC_TYPE_FLUSH:
            seconds = _FLUSH_OVERHEAD_SEC
        else:
            seconds = _REQUEST_OVERHEAD_SEC + length / _MEDIA_BYTES_PER_SEC
        return seconds * self.freq_hz

    def _queue_active(self, q: "_QueuePair") -> bool:
        return (
            bool(self.vctl & regs.VCTL_EN) and q.created and q.entries > 0
        )

    # -- MMIO interface ------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == regs.VCTL:
            return self.vctl
        if offset == regs.VSTS:
            ready = bool(self.vctl & regs.VCTL_EN) and self.queue_entries > 0
            return regs.VSTS_READY if ready else 0
        if offset == regs.CAP:
            return self.capacity_sectors
        if offset == regs.VNQMAX:
            return regs.MAX_IO_QUEUES
        if offset == regs.VNQ:
            return self.nq
        if offset == regs.VICR:
            self._catch_up()
            self._process_completions()
            # Read-to-clear, but only the bits this read OBSERVED: a
            # cause raised for another queue between its completion and
            # that queue's own ISR can never be wiped by this read,
            # because this read returns (and therefore clears) it too —
            # and the per-queue QVICR path below never touches foreign
            # bits at all.
            value = self.vicr
            self.vicr &= ~value
            return value
        if offset in (regs.VIMS, regs.VIMC):
            return self.vims
        block = regs.queue_block(offset)
        if block is not None:
            qi, off = block
            q = self.queues[qi]
            if off == regs.QDTBAL:
                return q.dtba & 0xFFFFFFFF
            if off == regs.QDTBAH:
                return q.dtba >> 32
            if off == regs.QDTLEN:
                return q.dtlen
            if off == regs.QAVBAL:
                return q.avba & 0xFFFFFFFF
            if off == regs.QAVBAH:
                return q.avba >> 32
            if off == regs.QAVH:
                return q.avh
            if off == regs.QAVT:
                return q.avt
            if off == regs.QUBAL:
                return q.uba & 0xFFFFFFFF
            if off == regs.QUBAH:
                return q.uba >> 32
            if off == regs.QUH:
                return q.uh
            if off == regs.QUT:
                self._catch_up()
                self._process_completions()
                return q.ut
            if off == regs.QVICR:
                self._catch_up()
                self._process_completions()
                # Per-queue read-to-clear: clears ONLY this queue's
                # cause bit, so concurrent vectors never lose each
                # other's completions (the satellite-1 race fix).
                bit = regs.vicr_q(qi)
                value = 1 if self.vicr & bit else 0
                self.vicr &= ~bit
                return value
            return 0
        if offset == regs.RDOPS:
            self._process_completions()
            return self.rdops
        if offset == regs.WROPS:
            self._process_completions()
            return self.wrops
        if offset == regs.FLOPS:
            self._process_completions()
            return self.flops
        if offset == regs.SECR:
            return self.sectors_read
        if offset == regs.SECW:
            return self.sectors_written
        if offset == regs.DERR:
            return self.desc_errors + self.dma_errors
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == regs.VCTL:
            if value & regs.VCTL_RST:
                self.reset()
                return
            self.vctl = value
            return
        if offset == regs.VIMS:
            self.vims |= value
            return
        if offset == regs.VIMC:
            self.vims &= ~value
            return
        block = regs.queue_block(offset)
        if block is None:
            # Stats registers and unknown offsets ignore writes, like
            # hardware.
            return
        qi, off = block
        q = self.queues[qi]
        if off == regs.QDTBAL:
            q.dtba = (q.dtba & ~0xFFFFFFFF) | (value & 0xFFFFFFFF)
        elif off == regs.QDTBAH:
            q.dtba = (q.dtba & 0xFFFFFFFF) | (value << 32)
        elif off == regs.QDTLEN:
            if value % regs.VDESC_SIZE or value // regs.VDESC_SIZE > self.queue_entries_max:
                # Hardware ignores out-of-spec queue sizes; it must not
                # fault the CPU store that wrote them.
                self.kernel.dmesg(
                    f"vblk device: ignoring bad DTLEN {value:#x} (q{qi})"
                )
            else:
                q.dtlen = value
        elif off == regs.QAVBAL:
            q.avba = (q.avba & ~0xFFFFFFFF) | (value & 0xFFFFFFFF)
        elif off == regs.QAVBAH:
            q.avba = (q.avba & 0xFFFFFFFF) | (value << 32)
        elif off == regs.QAVH:
            q.avh = value % max(q.entries, 1)
        elif off == regs.QAVT:
            q.avt = value % max(q.entries, 1)
            q.doorbells += 1
            tp = self._tp_doorbell
            if tp.enabled:
                tp.emit(queue=qi, tail=q.avt)
            if (
                self.fault_injector is not None
                and self.fault_injector.fires("vblk_doorbell_drop")
            ):
                # The doorbell write latched the new tail in the
                # register file but the kick event was swallowed on the
                # bus; the device's ring scan (any later sync, cause
                # read, or doorbell) picks the posted work up.
                return
            self._queue_kick(q)
        elif off == regs.QUBAL:
            q.uba = (q.uba & ~0xFFFFFFFF) | (value & 0xFFFFFFFF)
        elif off == regs.QUBAH:
            q.uba = (q.uba & 0xFFFFFFFF) | (value << 32)
        elif off == regs.QUH:
            q.uh = value % max(q.entries, 1)
        # QVICR and unknown block offsets ignore writes.

    # -- queue DMA engine ----------------------------------------------------

    def _catch_up(self) -> None:
        """Scan every serviceable queue for posted-but-unfetched work
        (tail moved past head without a surviving kick event)."""
        for q in self.queues:
            if self._queue_active(q) and q.avh != q.avt:
                self._queue_kick(q)

    def _queue_kick(self, q: "_QueuePair") -> None:
        """Tail moved: fetch avail entries, move data, queue completions."""
        if not self._queue_active(q):
            if q.avh != q.avt and not q.created:
                self.kernel.dmesg(
                    f"vblk device: doorbell on uncreated queue {q.qid}"
                )
            return
        self._process_completions()
        ram = self.kernel.ram
        n = q.entries
        now = self._now()
        busy_at = max(q.media_free_at, now)
        while q.avh != q.avt:
            slot_phys = q.avba + q.avh * 4
            try:
                idx = ram.read_int(slot_phys, 4)
            except MemoryFault:
                self._master_abort(f"avail-ring fetch at {slot_phys:#x}")
                return
            q.avh = (q.avh + 1) % n
            if idx >= n:
                self.desc_errors += 1
                q.errors += 1
                self.kernel.dmesg(
                    f"vblk device: avail entry {idx} out of queue range"
                )
                continue
            desc_phys = q.dtba + idx * regs.VDESC_SIZE
            try:
                desc = ram.unpack(_DESC, desc_phys)
            except MemoryFault:
                self._master_abort(f"descriptor fetch at {desc_phys:#x}")
                return
            garbled = (
                self.fault_injector is not None
                and self.fault_injector.fires("vblk_desc_garble")
            )
            if garbled:
                # A torn descriptor fetch: the device saw an inconsistent
                # snapshot and rejects the request with an error status.
                sector, buf_phys, length, rtype = 0, 0, 0, 0xFFFF
            else:
                sector, buf_phys, length, rtype, _status, _pad, _rsvd = desc
            q.fetched += 1
            tp = self._tp_fetch
            if tp.enabled:
                tp.emit(queue=q.qid, index=idx, sector=sector,
                        len=length, op=rtype)
            status = regs.VDESC_STATUS_DD
            admin = rtype in _ADMIN_TYPES and q.qid == 0
            if admin:
                if not self._admin_command(sector, rtype):
                    status |= regs.VDESC_STATUS_ERR
                    q.errors += 1
            elif not self._request_valid(q, sector, length, rtype):
                self.desc_errors += 1
                q.errors += 1
                status |= regs.VDESC_STATUS_ERR
            elif rtype == regs.VDESC_TYPE_READ:
                data = bytes(
                    self.store[
                        sector * regs.SECTOR_SIZE:
                        sector * regs.SECTOR_SIZE + length
                    ]
                )
                try:
                    ram.write(buf_phys, data)  # DMA write: unguarded
                except MemoryFault:
                    self._master_abort(f"read DMA at {buf_phys:#x}")
                    return
                self.rdops += 1
                self.sectors_read += length // regs.SECTOR_SIZE
            elif rtype == regs.VDESC_TYPE_WRITE:
                try:
                    data = ram.read(buf_phys, length)  # DMA read: unguarded
                except MemoryFault:
                    self._master_abort(f"write DMA at {buf_phys:#x}")
                    return
                self.store[
                    sector * regs.SECTOR_SIZE:
                    sector * regs.SECTOR_SIZE + length
                ] = data
                self.wrops += 1
                self.sectors_written += length // regs.SECTOR_SIZE
            else:  # flush: drains THIS queue's write-cache channel
                self.flops += 1
            if admin or status & regs.VDESC_STATUS_ERR:
                # Admin commands and rejections complete without media
                # service time.
                done_at = busy_at
            else:
                busy_at += self._cycles_for_request(length, rtype)
                if self.fault_injector is not None:
                    busy_at += self.fault_injector.vblk_completion_stall_cycles()
                done_at = busy_at
            q.in_flight.append([done_at, idx, status, False])
        q.media_free_at = busy_at
        if self.clock is None:
            self._process_completions()

    def _admin_command(self, qid: int, rtype: int) -> bool:
        """CREATE_IOQ / DELETE_IOQ: bring I/O queue pairs in/out of
        service.  The target queue's rings must already be programmed
        (the NVMe ordering: register the rings, then ask the controller
        to activate them through the admin queue)."""
        if not 1 <= qid <= regs.MAX_IO_QUEUES:
            self.kernel.dmesg(f"vblk device: admin cmd on bad queue {qid}")
            return False
        q = self.queues[qid]
        if rtype == regs.VDESC_TYPE_CREATE_IOQ:
            if q.entries == 0:
                self.kernel.dmesg(
                    f"vblk device: CREATE_IOQ {qid} before ring setup"
                )
                return False
            q.created = True
        else:
            q.created = False
        return True

    def _request_valid(self, q: "_QueuePair", sector: int, length: int,
                       rtype: int) -> bool:
        if rtype == regs.VDESC_TYPE_FLUSH:
            return length == 0
        if rtype not in (regs.VDESC_TYPE_READ, regs.VDESC_TYPE_WRITE):
            return False
        if length == 0 or length % regs.SECTOR_SIZE:
            return False
        if length > regs.MAX_IO_SECTORS * regs.SECTOR_SIZE:
            return False
        return sector + length // regs.SECTOR_SIZE <= self.capacity_sectors

    def _master_abort(self, what: str) -> None:
        """A DMA access hit an invalid bus address: log + disable the queues.

        Hardware latches a fatal error and stops the queue engine; the CPU
        store that rang the doorbell is NOT faulted — the damage shows up
        asynchronously, exactly like the NIC model."""
        self.dma_errors += 1
        self.vctl &= ~regs.VCTL_EN
        self.kernel.dmesg(f"vblk device: DMA master abort ({what})")

    def _process_completions(self) -> None:
        """Write back status + used-ring entries for finished requests,
        queue by queue in the seeded merge order (per-queue FIFO)."""
        now = self._now()
        for q in self._merge_order:
            if q.in_flight:
                self._drain_queue(q, now)

    def _drain_queue(self, q: "_QueuePair", now: float) -> None:
        ram = self.kernel.ram
        n = q.entries
        timed = self.clock is not None
        completed = False
        if (
            q.in_flight
            and self.fault_injector is not None
            and (not timed or q.in_flight[0][0] <= now)
        ):
            stall = self.fault_injector.vblk_cq_stall_cycles()
            if stall:
                # The completion queue's write-back engine hiccuped:
                # everything matured on THIS queue is deferred together
                # (FIFO order preserved).  Untimed mode counts the event
                # but completes on this pass so the functional model can
                # never hang.
                if timed:
                    q.in_flight[0][0] = now + stall
        while q.in_flight:
            entry = q.in_flight[0]
            done_at, idx, status, retried = entry
            if timed and done_at > now:
                break
            if (
                not retried
                and self.fault_injector is not None
                and self.fault_injector.fires("vblk_writeback_drop")
            ):
                # The used-ring write-back was dropped on the bus; the
                # device's retry engine replays it (once) a beat later.
                # Head position keeps completions in submission order.
                entry[0] = done_at + self._cycles_for_request(0, regs.VDESC_TYPE_READ)
                entry[3] = True
                if timed:
                    continue
                # Untimed mode: fall through and complete on this pass so
                # the functional model can never hang.
            q.in_flight.popleft()
            if not n:
                continue
            desc_phys = q.dtba + idx * regs.VDESC_SIZE
            status_off = desc_phys + 22  # u8 status
            slot_phys = q.uba + q.ut * 4
            try:
                ram.write_int(status_off, 1, status)
                ram.write_int(slot_phys, 4, idx)
            except MemoryFault:
                self._master_abort(f"completion write-back at {slot_phys:#x}")
                return
            tp = self._tp_complete
            if tp.enabled:
                tp.emit(queue=q.qid, index=idx, status=status)
            q.ut = (q.ut + 1) % n
            q.completed += 1
            self.vicr |= regs.vicr_q(q.qid)
            completed = True
        if completed:
            self._maybe_interrupt(q.qid)

    def _maybe_interrupt(self, qi: int) -> None:
        """Raise queue qi's vector when its unmasked cause is pending
        (VIMS bit qi gates vector qi)."""
        if self.vicr & self.vims & regs.vicr_q(qi):
            self.kernel.irq.raise_irq(self.irq_lines[qi])

    def sync(self) -> None:
        """Process pending work and completions against the current clock."""
        self._catch_up()
        self._process_completions()

    # -- introspection -------------------------------------------------------

    def read_sectors(self, sector: int, count: int) -> bytes:
        """Host-side peek at the media (tests/verification; not DMA)."""
        off = sector * regs.SECTOR_SIZE
        return bytes(self.store[off:off + count * regs.SECTOR_SIZE])

    def stats(self) -> dict[str, int]:
        self._process_completions()
        q0 = self.queues[0]
        return {
            "reads": self.rdops,
            "writes": self.wrops,
            "flushes": self.flops,
            "sectors_read": self.sectors_read,
            "sectors_written": self.sectors_written,
            "desc_errors": self.desc_errors,
            "dma_errors": self.dma_errors,
            "in_flight": sum(len(q.in_flight) for q in self.queues),
            "queues": self.nq,
            "avh": q0.avh,
            "avt": q0.avt,
            "ut": q0.ut,
        }

    def queue_stats(self) -> list[dict[str, int]]:
        """Per-queue telemetry rows (the /proc and trace_stat feed)."""
        self._process_completions()
        rows = []
        for q in self.queues:
            rows.append({
                "queue": q.qid,
                "created": int(q.created),
                "entries": q.entries,
                "doorbells": q.doorbells,
                "fetched": q.fetched,
                "completed": q.completed,
                "errors": q.errors,
                "in_flight": len(q.in_flight),
                "avh": q.avh,
                "avt": q.avt,
                "ut": q.ut,
            })
        return rows


__all__ = ["VblkDevice"]

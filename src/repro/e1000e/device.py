"""The simulated Intel 82574L NIC.

The device is the other half of the driver contract: an MMIO register
window plus a **DMA engine** that reads TX descriptors and frame payloads
straight out of physical memory.  DMA accesses bypass the guard machinery
*by construction* — they never pass through module code — which models
the paper's scoping (§4 fn 3: "The natural way to control memory access
from DMA is using a technology like the IOMMU or SR-IOV, and is outside
the scope of this paper"), and is also why CARAT KOP's overhead is
independent of how many bytes the NIC moves (§4: "the overwhelming amount
of data transfer occurs due to the DMA engine on the NIC, which is not
checked (and thus not slowed)").

Timing: the wire drains at 1 Gbit/s.  When a cycle clock is available
(machine-model runs), descriptor completion (DD write-back, TDH advance)
happens as simulated wire time elapses; without a clock, completion is
immediate (functional mode).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Optional

from ..kernel.kernel import Kernel
from ..kernel.panic import MemoryFault
from ..net.sink import PacketSink
from . import regs

#: A TX descriptor: buffer, length, cso, cmd, status, css, special.
_TDESC = struct.Struct("<QHBBBBH")
#: An RX descriptor's buffer address (the whole descriptor is fetched).
_RDESC_BUFFER = struct.Struct("<Q8x")

_LINE_RATE_BITS_PER_SEC = 1_000_000_000
#: Preamble + SFD + IFG + FCS per frame on the wire.
_WIRE_OVERHEAD_BYTES = 24


class E1000EDevice:
    """Register file + DMA engine + wire model."""

    def __init__(
        self,
        kernel: Kernel,
        sink: PacketSink,
        mac: bytes = b"\x52\x54\x00\x12\x34\x56",
        clock: Optional[Callable[[], float]] = None,
        freq_hz: Optional[float] = None,
        ring_entries_max: int = 4096,
    ):
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        self.kernel = kernel
        self.sink = sink
        self.mac = mac
        #: Returns "now" in CPU cycles; None = functional (untimed) mode.
        self.clock = clock
        self.freq_hz = freq_hz
        self.ring_entries_max = ring_entries_max
        self.phys_base = kernel.register_mmio(self, regs.BAR_SIZE, "e1000e")
        #: Interrupt line (assigned by the "PCI subsystem" at attach time).
        self.irq_line = kernel.irq.allocate_line()
        #: Fault-injection hook (see :mod:`repro.faults`): may garble
        #: telemetry-register reads and stall the DMA wire model.  None =
        #: healthy hardware.
        self.fault_injector = None
        points = kernel.trace.points
        self._tp_fetch = points["dma:fetch"]
        self._tp_writeback = points["dma:writeback"]
        self._tp_rx = points["dma:rx"]
        self.reset()

    # -- device state --------------------------------------------------------

    def reset(self) -> None:
        self.ctrl = 0
        self.tctl = 0
        self.rctl = 0
        self.tipg = 0
        self.ims = 0
        self.icr = 0
        self.tdba = 0
        self.tdlen = 0
        self.tdh = 0
        self.tdt = 0
        self.gptc = 0
        self.total_octets = 0
        # In-flight frames: (completion_cycle, ring_index)
        self._in_flight: deque[tuple[float, int]] = deque()
        self._wire_free_at = 0.0
        self.rdba = 0
        self.rdlen = 0
        self.rdh = 0
        self.rdt = 0
        self.gprc = 0
        self.mpc = 0  # missed packets: RX ring had no free descriptors
        #: DMA master aborts: the driver programmed a bogus bus address.
        #: Real hardware reads all-ones and sets an error; it never faults
        #: the CPU instruction that rang the doorbell.
        self.dma_errors = 0

    @property
    def ring_entries(self) -> int:
        return self.tdlen // regs.TDESC_SIZE if self.tdlen else 0

    @property
    def rx_ring_entries(self) -> int:
        return self.rdlen // regs.RDESC_SIZE if self.rdlen else 0

    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _cycles_for_frame(self, length: int) -> float:
        if self.freq_hz is None:
            return 0.0
        seconds = (length + _WIRE_OVERHEAD_BYTES) * 8 / _LINE_RATE_BITS_PER_SEC
        return seconds * self.freq_hz

    # -- MMIO interface -----------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        if self.fault_injector is not None:
            garbled = self.fault_injector.mmio_garble(offset)
            if garbled is not None:
                return garbled
        if offset == regs.STATUS:
            return regs.STATUS_LU | regs.STATUS_FD
        if offset == regs.CTRL:
            return self.ctrl
        if offset == regs.TCTL:
            return self.tctl
        if offset == regs.TDH:
            self._process_completions()
            return self.tdh
        if offset == regs.TDT:
            return self.tdt
        if offset == regs.TDLEN:
            return self.tdlen
        if offset == regs.TDBAL:
            return self.tdba & 0xFFFFFFFF
        if offset == regs.TDBAH:
            return self.tdba >> 32
        if offset == regs.RDH:
            return self.rdh
        if offset == regs.RDT:
            return self.rdt
        if offset == regs.RDLEN:
            return self.rdlen
        if offset == regs.RDBAL:
            return self.rdba & 0xFFFFFFFF
        if offset == regs.RDBAH:
            return self.rdba >> 32
        if offset == regs.RCTL:
            return self.rctl
        if offset == regs.GPRC:
            return self.gprc
        if offset == regs.MPC:
            return self.mpc
        if offset == regs.GPTC:
            self._process_completions()
            return self.gptc
        if offset == regs.TOTL:
            self._process_completions()
            return self.total_octets & 0xFFFFFFFF
        if offset == regs.TOTH:
            return self.total_octets >> 32
        if offset == regs.RAL0:
            return int.from_bytes(self.mac[:4], "little")
        if offset == regs.RAH0:
            return int.from_bytes(self.mac[4:6], "little") | regs.RAH_AV
        if offset == regs.ICR:
            value, self.icr = self.icr, 0  # read-to-clear
            return value
        if offset in (regs.IMS, regs.IMC):
            return self.ims
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == regs.CTRL:
            if value & regs.CTRL_RST:
                self.reset()
                return
            self.ctrl = value
        elif offset == regs.TCTL:
            self.tctl = value
        elif offset == regs.TIPG:
            self.tipg = value
        elif offset == regs.TDBAL:
            self.tdba = (self.tdba & ~0xFFFFFFFF) | (value & 0xFFFFFFFF)
        elif offset == regs.TDBAH:
            self.tdba = (self.tdba & 0xFFFFFFFF) | (value << 32)
        elif offset == regs.TDLEN:
            if value % regs.TDESC_SIZE or value // regs.TDESC_SIZE > self.ring_entries_max:
                # Hardware ignores out-of-spec ring lengths; it must not
                # fault the CPU store that wrote them.
                self.kernel.dmesg(f"e1000e device: ignoring bad TDLEN {value:#x}")
            else:
                self.tdlen = value
        elif offset == regs.TDH:
            self.tdh = value % max(self.ring_entries, 1)
        elif offset == regs.TDT:
            self.tdt = value % max(self.ring_entries, 1)
            self._dma_kick()
        elif offset == regs.IMS:
            self.ims |= value
        elif offset == regs.IMC:
            self.ims &= ~value
        elif offset == regs.RCTL:
            self.rctl = value
        elif offset == regs.RDBAL:
            self.rdba = (self.rdba & ~0xFFFFFFFF) | (value & 0xFFFFFFFF)
        elif offset == regs.RDBAH:
            self.rdba = (self.rdba & 0xFFFFFFFF) | (value << 32)
        elif offset == regs.RDLEN:
            if value % regs.RDESC_SIZE or value // regs.RDESC_SIZE > self.ring_entries_max:
                self.kernel.dmesg(f"e1000e device: ignoring bad RDLEN {value:#x}")
            else:
                self.rdlen = value
        elif offset == regs.RDH:
            self.rdh = value % max(self.rx_ring_entries, 1)
        elif offset == regs.RDT:
            self.rdt = value % max(self.rx_ring_entries, 1)
        # Stats registers and unknown offsets ignore writes, like hardware.

    # -- DMA engine -----------------------------------------------------------------

    def _dma_kick(self) -> None:
        """TDT moved: fetch new descriptors and put frames on the wire."""
        if not (self.tctl & regs.TCTL_EN) or not self.ring_entries:
            return
        self._process_completions()
        ram = self.kernel.ram
        n = self.ring_entries
        # Descriptors [next_fetch, tdt) are new.  We track the fetch point
        # implicitly: everything in flight + completed equals [0..) modulo
        # ring; the next to fetch is tdh + len(in_flight).
        next_fetch = (self.tdh + len(self._in_flight)) % n
        now = self._now()
        wire_at = max(self._wire_free_at, now)
        while next_fetch != self.tdt:
            desc_phys = self.tdba + next_fetch * regs.TDESC_SIZE
            try:
                buf_addr, length, _cso, cmd, _status, _css, _special = (
                    ram.unpack(_TDESC, desc_phys))
            except MemoryFault:
                self._master_abort(f"descriptor fetch at {desc_phys:#x}")
                return
            try:
                payload = ram.read(buf_addr, length)  # DMA: unguarded
            except MemoryFault:
                self._master_abort(f"payload fetch at {buf_addr:#x}")
                return
            wire_at += self._cycles_for_frame(length)
            if self.fault_injector is not None:
                wire_at += self.fault_injector.dma_stall_cycles()
            tp = self._tp_fetch
            if tp.enabled:
                tp.emit(index=next_fetch, addr=buf_addr, len=length)
            self._in_flight.append((wire_at, next_fetch))
            self.sink.deliver(payload)
            self.gptc += 1
            self.total_octets += length
            next_fetch = (next_fetch + 1) % n
        self._wire_free_at = wire_at
        if self.clock is None:
            self._process_completions()

    def _master_abort(self, what: str) -> None:
        """A DMA access hit an invalid bus address: log + disable TX.

        Hardware sets a fatal error status and stops the DMA engine;
        crucially the CPU instruction that triggered the kick is NOT
        faulted — the damage shows up asynchronously."""
        self.dma_errors += 1
        self.tctl &= ~regs.TCTL_EN
        self.kernel.dmesg(f"e1000e device: DMA master abort ({what})")

    def _process_completions(self) -> None:
        """Write back DD for frames whose wire time has passed."""
        now = self._now()
        ram = self.kernel.ram
        while self._in_flight:
            done_at, idx = self._in_flight[0]
            if self.clock is not None and done_at > now:
                break
            self._in_flight.popleft()
            desc_phys = self.tdba + idx * regs.TDESC_SIZE
            status_off = desc_phys + 12  # u8 status
            try:
                status = ram.read_int(status_off, 1) | regs.TDESC_STATUS_DD
                ram.write_int(status_off, 1, status)
            except MemoryFault:
                self._master_abort(f"DD write-back at {status_off:#x}")
                return
            tp = self._tp_writeback
            if tp.enabled:
                tp.emit(index=idx)
            self.tdh = (idx + 1) % self.ring_entries
            self.icr |= regs.ICR_TXDW
        self._maybe_interrupt()

    # -- RX engine --------------------------------------------------------------------

    def receive(self, frame: bytes) -> bool:
        """A frame arrives from the wire: DMA it into the next RX buffer.

        Returns True if delivered; False (and counts MPC) when receive is
        disabled or the driver has not replenished descriptors — exactly
        how the hardware drops on ring exhaustion.
        """
        if not (self.rctl & regs.RCTL_EN) or not self.rx_ring_entries:
            self.mpc += 1
            return False
        # Hardware owns descriptors [rdh, rdt): empty ring when rdh == rdt.
        if self.rdh == self.rdt:
            self.mpc += 1
            return False
        if len(frame) > regs.RX_BUFFER_SIZE:
            self.mpc += 1
            return False
        ram = self.kernel.ram
        desc_phys = self.rdba + self.rdh * regs.RDESC_SIZE
        try:
            buf_addr = ram.unpack(_RDESC_BUFFER, desc_phys)[0]
            ram.write(buf_addr, frame)  # DMA write: unguarded by design
            # Write back length + DD|EOP status.
            ram.write_int(desc_phys + 8, 2, len(frame))
            ram.write_int(desc_phys + 12, 1,
                          regs.RDESC_STATUS_DD | regs.RDESC_STATUS_EOP)
        except MemoryFault:
            self._master_abort(f"RX DMA at ring slot {self.rdh}")
            self.mpc += 1
            return False
        tp = self._tp_rx
        if tp.enabled:
            tp.emit(index=self.rdh, len=len(frame))
        self.rdh = (self.rdh + 1) % self.rx_ring_entries
        self.gprc += 1
        self.icr |= regs.ICR_RXT0
        self._maybe_interrupt()
        return True

    def _maybe_interrupt(self) -> None:
        """Raise the line when an unmasked cause is pending (IMS gates)."""
        if self.icr & self.ims:
            self.kernel.irq.raise_irq(self.irq_line)

    def sync(self) -> None:
        """Process pending completions against the current clock.

        Real hardware writes DD back autonomously as frames leave the
        wire; the lazy model needs an explicit poke when simulated time
        passes without any MMIO access (e.g. while the sender sleeps)."""
        self._process_completions()

    # -- introspection ---------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        self._process_completions()
        return {
            "packets": self.gptc,
            "octets": self.total_octets,
            "in_flight": len(self._in_flight),
            "tdh": self.tdh,
            "tdt": self.tdt,
        }


__all__ = ["E1000EDevice"]

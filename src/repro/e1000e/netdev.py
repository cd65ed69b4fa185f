"""Net-device glue: the kernel-side bridge between the network stack and
the (possibly protected) driver module.

Models the slice of the Linux netdev layer the evaluation exercises:
skb allocation (kmalloc), payload copy into the skb (core-kernel memcpy —
*not* guarded, because it is not module code), and the call into the
driver's ``ndo_start_xmit`` equivalent, which *is* module code and runs
under the guards.
"""

from __future__ import annotations

import struct
from typing import Union

from ..abi import to_signed32, to_signed64
from ..kernel import layout
from ..kernel.chardev import EBUSY
from ..kernel.kernel import Kernel
from ..kernel.module_loader import LoadedModule
from ..net.frame import ETH_ZLEN, EthernetFrame
from . import regs
from .device import E1000EDevice

# errno values the driver returns (negative).
ENETDOWN = 100

STAT_NAMES = (
    "tx_packets",
    "tx_bytes",
    "tx_errors",
    "tx_busy",
    "cleaned",
    "ring_space",
    "next_to_use",
    "next_to_clean",
    "rx_packets",
    "rx_bytes",
    "irq_count",
)


class E1000ENetDev:
    """One registered network interface backed by the driver module."""

    def __init__(self, kernel: Kernel, module: LoadedModule, device: E1000EDevice):
        self.kernel = kernel
        self.module = module
        self.device = device
        self._probed = False
        #: Frames the driver handed up through netif_rx (newest last).
        self.rx_queue: list[bytes] = []
        #: Fault injector (see :mod:`repro.faults`): its ``xmit_transient``
        #: schedule interposes stack-level EBUSY.  None = healthy path.
        #: Taken from the device, so a netdev re-probed after a driver
        #: reload stays wired to the injector attached to its device.
        self.fault_injector = device.fault_injector
        kernel.netif_rx_handler = self._netif_rx
        # Slot-keyed: re-probing after an eject replaces the hook instead
        # of stacking a stale one per recovery cycle.
        kernel.register_eject_hook(module.name, self._on_eject, slot="netdev")
        # Multi-queue RX (queues >= 1, kernel-side): descriptor rings and
        # buffers this netdev owns, plus the NAPI poller state.  Queue 0
        # stays with the guarded driver and its line interrupt.
        self._rx_rings: dict[int, tuple[int, list[int], int]] = {}
        self._rxq_clean: dict[int, int] = {}
        #: Queues whose vector fired and is masked, awaiting a poll pass
        #: (FIFO arming order, like the softirq NAPI list).
        self._napi_armed: list[int] = []
        self.napi_budget = 64
        self.napi_schedules = 0
        self.napi_polls = 0
        self.rxq_packets: dict[int, int] = {}
        self._tp_napi = kernel.trace.point("napi:poll")

    def _on_eject(self, loaded: LoadedModule) -> None:
        """Quiesce the hardware before the journal frees the driver's
        rings: stop both DMA engines, mask interrupts, and detach the
        netif_rx path, so no in-flight work touches rolled-back memory."""
        dev = self.device
        dev.tctl &= ~regs.TCTL_EN
        dev.rctl &= ~regs.RCTL_EN
        dev.ims = 0
        dev.icr = 0
        dev._in_flight.clear()
        dev.napi_notify = None
        self._napi_armed.clear()
        if self.kernel.netif_rx_handler is self._netif_rx:
            self.kernel.netif_rx_handler = None
        self._probed = False
        self.kernel.dmesg(
            f"e1000e netdev: quiesced after eject of {loaded.name}"
        )

    def _netif_rx(self, ctx, data: int, length: int) -> None:
        """The core network stack's receive entry: copy the frame out of
        the driver's RX buffer (core-kernel copy, unguarded) and queue it."""
        self.rx_queue.append(
            self.kernel.address_space.read_bytes(int(data), int(length))
        )

    def probe(self) -> None:
        """The PCI-subsystem callback: hand the driver its BAR."""
        rc = self.kernel.run_function(
            self.module, "e1000e_probe", [self.device.phys_base]
        )
        if rc != 0:
            raise RuntimeError(f"e1000e_probe failed: {rc}")
        self._probed = True

    def remove(self) -> None:
        if self._probed:
            self.kernel.run_function(self.module, "e1000e_remove", [])
            self._probed = False
        self.device.napi_notify = None
        self._napi_armed.clear()

    def up(self) -> int:
        return self.kernel.run_function(self.module, "e1000e_up", [])

    def down(self) -> int:
        return self.kernel.run_function(self.module, "e1000e_down", [])

    def xmit(self, frame: Union[EthernetFrame, bytes]) -> int:
        """Queue one frame; returns 0 or a negative errno from the driver.

        The skb buffer is kmalloc'd with room for runt padding (the driver
        writes the pad bytes itself, under guards).
        """
        raw = frame.encode() if isinstance(frame, EthernetFrame) else bytes(frame)
        if (self.fault_injector is not None
                and self.fault_injector.fires("xmit_transient")):
            return -EBUSY
        skb_len = max(len(raw), ETH_ZLEN)
        skb = self.kernel.kmalloc_allocator.kmalloc(skb_len)
        # Core-kernel copy of the payload into the skb: native, unguarded.
        self.kernel.address_space.write_bytes(skb, raw)
        try:
            rc = self.kernel.run_function(
                self.module, "e1000e_xmit_frame", [skb, len(raw)]
            )
            # The VM returns the unsigned i32 bit pattern; errnos are
            # negative, so re-sign it.
            return to_signed32(rc)
        finally:
            # The DMA engine consumed the payload synchronously at the
            # doorbell, so the skb can be freed as soon as xmit returns.
            self.kernel.kmalloc_allocator.kfree(skb)

    def enable_interrupts(self) -> int:
        """Switch from polling to interrupt-driven TX/RX servicing."""
        return self.kernel.run_function(
            self.module, "e1000e_irq_enable", [self.device.irq_line]
        )

    def disable_interrupts(self) -> int:
        return self.kernel.run_function(self.module, "e1000e_irq_disable", [])

    def inject_rx(self, frame: Union[EthernetFrame, bytes]) -> bool:
        """A frame arrives on the wire (test-peer side of the link)."""
        raw = frame.encode() if isinstance(frame, EthernetFrame) else bytes(frame)
        return self.device.receive(raw)

    def poll_rx(self, budget: int = 64) -> int:
        """NAPI-style poll: let the driver clean its RX ring.

        Returns the number of frames the driver handed up."""
        return self.kernel.run_function(
            self.module, "e1000e_clean_rx_irq", [budget]
        )

    # -- multi-queue RX + NAPI (queues >= 1, kernel-side) -----------------------

    def setup_rx_queue(self, queue: int, entries: int = 64) -> None:
        """Allocate and program RX queue ``queue`` (>= 1).

        The ring and its buffers are kernel-side allocations (the netdev
        layer owns scale-out queues, the way the stack owns RSS queues);
        the guarded driver's queue-0 bring-up is untouched, so single-
        queue runs stay byte-identical.
        """
        if not 1 <= queue < regs.MAX_RX_QUEUES:
            raise ValueError(f"queue must be 1..{regs.MAX_RX_QUEUES - 1}")
        alloc = self.kernel.kmalloc_allocator
        aspace = self.kernel.address_space
        ring = alloc.kmalloc(entries * regs.RDESC_SIZE)
        bufs = []
        for i in range(entries):
            buf = alloc.kmalloc(regs.RX_BUFFER_SIZE)
            bufs.append(buf)
            # Descriptors carry bus (physical) buffer addresses — the
            # device DMAs straight into RAM, like the driver's queue 0.
            aspace.write_bytes(
                ring + i * regs.RDESC_SIZE,
                struct.pack(
                    "<QHHBBH", layout.direct_map_to_phys(buf), 0, 0, 0, 0, 0
                ),
            )
        dev = self.device
        ring_phys = layout.direct_map_to_phys(ring)
        dev.mmio_write(
            regs.rxq_reg(regs.RDBAL, queue), 4, ring_phys & 0xFFFFFFFF
        )
        dev.mmio_write(regs.rxq_reg(regs.RDBAH, queue), 4, ring_phys >> 32)
        dev.mmio_write(
            regs.rxq_reg(regs.RDLEN, queue), 4, entries * regs.RDESC_SIZE
        )
        dev.mmio_write(regs.rxq_reg(regs.RDH, queue), 4, 0)
        dev.mmio_write(regs.rxq_reg(regs.RDT, queue), 4, entries - 1)
        self._rx_rings[queue] = (ring, bufs, entries)
        self._rxq_clean[queue] = 0

    def enable_rss(self, nqueues: int, entries: int = 64,
                   budget: int = 64) -> None:
        """Spread RX across ``nqueues`` queues with NAPI batch polling.

        Queues 1..nqueues-1 are set up kernel-side; RSS steering and the
        per-queue vectors are unmasked; one arriving frame on a quiet
        queue arms its poller, which then drains up to ``budget``
        descriptors per pass before re-enabling the vector.
        """
        for q in range(1, nqueues):
            if q not in self._rx_rings:
                self.setup_rx_queue(q, entries)
        dev = self.device
        self.napi_budget = budget
        ims = 0
        for q in range(1, nqueues):
            ims |= regs.icr_rxq(q)
        dev.mmio_write(regs.IMS, 4, ims)
        dev.mmio_write(regs.MRQC, 4, regs.MRQC_RSS_EN)
        dev.napi_notify = self._napi_schedule

    def _napi_schedule(self, queue: int) -> None:
        """The queue's vector fired: mask it and arm the poller (the
        ISR half of NAPI — no frame work happens here)."""
        self.device.mmio_write(regs.IMC, 4, regs.icr_rxq(queue))
        if queue not in self._napi_armed:
            self._napi_armed.append(queue)
            self.napi_schedules += 1

    def napi_poll(self, budget: int = 0) -> int:
        """One softirq pass: drain every armed queue, up to ``budget``
        frames each.  A queue that drains below budget completes NAPI
        (vector re-enabled); a saturated queue stays armed for the next
        pass.  Returns total frames handed up."""
        budget = budget or self.napi_budget
        total = 0
        for queue in list(self._napi_armed):
            work = self._clean_rx_queue(queue, budget)
            total += work
            self.napi_polls += 1
            if work < budget:
                self._napi_armed.remove(queue)
                self.device.mmio_write(regs.IMS, 4, regs.icr_rxq(queue))
        return total

    def _clean_rx_queue(self, queue: int, budget: int) -> int:
        """Harvest completed descriptors from one kernel-side queue.

        Runs attributed to CPU ``queue % ncpus`` (the RSS queue<->CPU
        affinity), so per-CPU trace rings and counters see the work
        where a real flow-steered softirq would run it."""
        ring, bufs, entries = self._rx_rings[queue]
        aspace = self.kernel.address_space
        smp = self.kernel.smp
        ntc = self._rxq_clean[queue]
        work = 0
        with smp.on(queue % smp.ncpus):
            while work < budget:
                desc = ring + ntc * regs.RDESC_SIZE
                status = aspace.read_bytes(desc + 12, 1)[0]
                if not (status & regs.RDESC_STATUS_DD):
                    break
                (length,) = struct.unpack(
                    "<H", aspace.read_bytes(desc + 8, 2)
                )
                self.rx_queue.append(aspace.read_bytes(bufs[ntc], length))
                aspace.write_bytes(desc + 12, b"\x00")
                ntc = (ntc + 1) % entries
                work += 1
            if work and self._tp_napi.enabled:
                # Emitted on the queue's CPU, so per-CPU trace rings see
                # the poll where the flow-steered softirq ran it.
                self._tp_napi.emit(queue=queue, work=work)
        if work:
            self._rxq_clean[queue] = ntc
            # Return the harvested descriptors in one batched tail write.
            self.device.mmio_write(
                regs.rxq_reg(regs.RDT, queue), 4, (ntc - 1) % entries
            )
            self.rxq_packets[queue] = self.rxq_packets.get(queue, 0) + work
        return work

    def napi_stats(self) -> dict[str, object]:
        return {
            "budget": self.napi_budget,
            "schedules": self.napi_schedules,
            "polls": self.napi_polls,
            "armed": list(self._napi_armed),
            "rxq_packets": dict(self.rxq_packets),
            "rxq_hw_packets": {
                q: s.packets for q, s in enumerate(self.device.rx_queues)
                if s.packets
            },
        }

    def stats(self) -> dict[str, int]:
        out = {}
        for i, name in enumerate(STAT_NAMES):
            out[name] = to_signed64(self.kernel.run_function(
                self.module, "e1000e_get_stat", [i]))
        return out

    def read_reg(self, reg: int) -> int:
        return self.kernel.run_function(self.module, "e1000e_read_reg", [reg])


__all__ = ["ENETDOWN", "E1000ENetDev", "STAT_NAMES"]

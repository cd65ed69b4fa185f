"""Net-device glue: the kernel-side bridge between the network stack and
the (possibly protected) driver module.

Models the slice of the Linux netdev layer the evaluation exercises:
skb allocation (kmalloc), payload copy into the skb (core-kernel memcpy —
*not* guarded, because it is not module code), and the call into the
driver's ``ndo_start_xmit`` equivalent, which *is* module code and runs
under the guards.
"""

from __future__ import annotations

from typing import Union

from ..abi import to_signed32, to_signed64
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

    def stats(self) -> dict[str, int]:
        out = {}
        for i, name in enumerate(STAT_NAMES):
            out[name] = to_signed64(self.kernel.run_function(
                self.module, "e1000e_get_stat", [i]))
        return out

    def read_reg(self, reg: int) -> int:
        return self.kernel.run_function(self.module, "e1000e_read_reg", [reg])


__all__ = ["ENETDOWN", "E1000ENetDev", "STAT_NAMES"]

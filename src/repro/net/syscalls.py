"""The raw packet socket: the NIC stack's side of the syscall boundary.

``RawPacketSocket.sendmsg`` is the measured section of Figure 7.  Per
call, :class:`~repro.kernel.syscall.SyscallBoundary` charges syscall
entry/exit, the core network stack traversal and the payload copy, then
runs the driver's xmit path on the VM, where guard costs accrue; a full
TX ring (EBUSY) deschedules the sender until the wire drains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..kernel.kernel import Kernel
from ..kernel.syscall import SyscallBoundary, SyscallResult
from ..net.frame import EthernetFrame
from ..vm.machine import MachineModel

if TYPE_CHECKING:  # pragma: no cover
    from ..e1000e.netdev import E1000ENetDev


class RawPacketSocket(SyscallBoundary):
    """An AF_PACKET-style raw socket bound to one interface."""

    def __init__(self, kernel: Kernel, netdev: "E1000ENetDev",
                 machine: Optional[MachineModel] = None,
                 max_retries: int = 1):
        super().__init__(kernel, netdev.device, machine, max_retries)
        self.netdev = netdev

    def sendmsg(self, frame: Union[EthernetFrame, bytes]) -> SyscallResult:
        raw = frame.encode() if isinstance(frame, EthernetFrame) else bytes(frame)
        xmit = self.netdev.xmit
        return self._call("sendmsg", len(raw), lambda: (xmit(raw), b""))


__all__ = ["RawPacketSocket"]

"""pktblast: the user-level raw-Ethernet test tool (paper §4.2).

"We bring the NIC up on a private IP address, and then test using a
user-level tool that sends raw Ethernet packets to a fake destination.
The tool can vary the number of packets sent and the size of the packets.
The tool measures the throughput of the packet transmissions, and the
latency of individual packet launches."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.frame import make_test_frame
from ..net.syscalls import RawPacketSocket
from ..vm.machine import MachineModel


@dataclass(slots=True)
class BlastResult:
    """One trial's measurements."""

    packets_requested: int
    packets_sent: int
    errors: int
    stalls: int
    total_cycles: float
    throughput_pps: float
    #: Per-packet sendmsg latencies in cycles (empty if latency capture
    #: was off — it costs memory at 100k packets/trial).
    latencies: list[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0


class PacketBlaster:
    """Drives one trial: N packets of a fixed size through sendmsg."""

    def __init__(
        self,
        socket: RawPacketSocket,
        machine: Optional[MachineModel] = None,
    ):
        self.socket = socket
        self.machine = machine if machine is not None else socket.machine

    def blast(
        self,
        size: int,
        count: int,
        capture_latency: bool = False,
    ) -> BlastResult:
        """Send ``count`` frames of ``size`` bytes; measure as the tool does.

        Throughput counts wall-clock (simulated) time per iteration: the
        sendmsg window plus the tool's own user-space loop cost.
        """
        machine = self.machine
        kernel = self.socket.kernel
        timing = kernel.vm.timing
        errors = 0
        stalls_before = self.socket.stalls
        latencies: list[float] = [] if capture_latency else None  # type: ignore[assignment]
        start_cc = timing.cc if timing is not None else 0

        def send(seq: int) -> None:
            nonlocal errors
            frame = make_test_frame(size, seq)
            # The tool's own per-iteration work happens on the same
            # clock the device drains against — without it the
            # producer would look impossibly fast and the TX ring
            # would always be full.
            if timing is not None and machine is not None:
                timing.cc += machine.centi.userspace_per_packet
            result = self.socket.sendmsg(frame)
            if result.rc != 0:
                errors += 1
            if capture_latency:
                latencies.append(result.latency_cycles)

        kernel.smp.run_sharded(count, send)
        total = (timing.cc - start_cc) / 100 if timing is not None else 0.0
        if machine is not None and total > 0:
            pps = count / machine.seconds(total)
        else:
            pps = 0.0
        return BlastResult(
            packets_requested=count,
            packets_sent=count - errors,
            errors=errors,
            stalls=self.socket.stalls - stalls_before,
            total_cycles=total,
            throughput_pps=pps,
            latencies=latencies or [],
        )


__all__ = ["BlastResult", "PacketBlaster"]

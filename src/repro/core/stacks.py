"""Device stacks: a guarded driver and everything assembled around it.

:class:`~repro.core.system.CaratKopSystem` builds one stack on top of
the kernel and policy module.  Both stacks implement the same small
protocol, so system assembly, the blast tools and the soak never branch
on which driver is in use:

- ``name``, ``source``, ``contracts`` — the driver module, its mini-C
  source, and the trusted ABI contracts ``-O3`` may prove guards under;
- the constructor builds the device model (before the driver exists);
- ``probe(driver)`` binds the kernel glue, syscall boundary and load
  tool to a freshly inserted driver and brings the device up; the
  system calls it again to recover after an eject;
- ``teardown()`` runs the driver's remove path;
- ``workload(count, ...)`` runs one trial of the stack's load tool,
  ``describe(result)`` renders it, and ``delivered()`` counts the ops
  the device actually completed, so callers can check a trial end to
  end;
- ``stranded()`` lists requests left on the device after it drains;
- ``unit`` and ``latency_label`` name one op and its syscall in reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .. import e1000e, vblk
from ..e1000e.contracts import DRIVER_CONTRACTS
from ..net import PacketBlaster, PacketSink, RawPacketSocket

if TYPE_CHECKING:  # pragma: no cover
    from .system import CaratKopSystem


def _device_clock(system: "CaratKopSystem") -> dict:
    """Device-model timing: the machine clock, or untimed without one."""
    machine, kernel = system.machine, system.kernel
    if machine is None:
        return {"clock": None, "freq_hz": None}
    return {"clock": lambda: kernel.vm.timing.cycles,
            "freq_hz": machine.freq_hz}


class NetStack:
    """e1000e NIC -> netdev -> raw socket -> pktblast (the paper's §4
    testbed)."""

    name = e1000e.DRIVER_NAME
    source = e1000e.DRIVER_SOURCE
    contracts = DRIVER_CONTRACTS
    #: What one op of the load tool is, for reports.
    unit = "frames"
    #: The syscall whose latency ``--latency`` reports.
    latency_label = "sendmsg"

    def __init__(self, system: "CaratKopSystem"):
        self.kernel, self.machine = system.kernel, system.machine
        self.sink = PacketSink(keep_last=8)
        self.device = e1000e.E1000EDevice(
            self.kernel, self.sink, **_device_clock(system)
        )
        self.socket = None

    def probe(self, driver) -> None:
        retries = self.socket.max_retries if self.socket is not None else 1
        self.netdev = e1000e.E1000ENetDev(self.kernel, driver, self.device)
        self.netdev.probe()
        self.socket = RawPacketSocket(
            self.kernel, self.netdev, self.machine, max_retries=retries
        )
        self.blaster = PacketBlaster(self.socket)

    def teardown(self) -> None:
        self.netdev.remove()

    def workload(self, count: int = 1000, size: int = 128,
                 capture_latency: bool = False):
        return self.blaster.blast(size, count, capture_latency)

    def describe(self, result) -> list[str]:
        return [
            f"{result.packets_sent}/{result.packets_requested} packets, "
            f"{result.throughput_pps:,.0f} pps, "
            f"{result.errors} errors, {result.stalls} stalls"
        ]

    def delivered(self) -> int:
        return self.sink.packets

    def stranded(self) -> list[str]:
        return []


class BlkStack:
    """vblk NVMe-style disk -> blkdev -> request queue -> blkblast."""

    name = vblk.DRIVER_NAME
    source = vblk.DRIVER_SOURCE
    contracts = vblk.VBLK_CONTRACTS
    unit = "ops"
    latency_label = "request"

    def __init__(self, system: "CaratKopSystem"):
        cfg = system.config
        self.kernel, self.machine = system.kernel, system.machine
        queues: Union[int, str] = cfg.queues
        if queues == "auto":
            # One queue pair per CPU, capped at the device's blocks.
            queues = max(1, min(cfg.cpus, vblk.regs.MAX_IO_QUEUES))
        #: I/O queue pairs the driver brings up (validated by the blkdev).
        self.queues = int(queues)
        self.device = vblk.VblkDevice(
            self.kernel, merge_seed=cfg.smp_seed, **_device_clock(system)
        )
        self.blkqueue = None

    def probe(self, driver) -> None:
        retries = self.blkqueue.max_retries if self.blkqueue is not None else 1
        self.blkdev = vblk.VblkBlockDev(
            self.kernel, driver, self.device, queues=self.queues
        )
        self.blkdev.probe()
        self.blkqueue = vblk.BlockRequestQueue(
            self.kernel, self.blkdev, self.machine, max_retries=retries
        )
        self.blkblaster = vblk.BlockBlaster(self.blkqueue)

    def teardown(self) -> None:
        self.blkdev.remove()

    def workload(self, count: int = 100, nsect: int = 2,
                 pattern: str = "seq", seed: int = 1, read_frac: int = 50,
                 flush_interval: int = 16, capture_latency: bool = False):
        return self.blkblaster.blast(
            count, nsect=nsect, pattern=pattern, seed=seed,
            read_frac=read_frac, flush_interval=flush_interval,
            capture_latency=capture_latency,
        )

    def describe(self, result) -> list[str]:
        lines = [
            f"{result.ops_done}/{result.ops_requested} ops "
            f"({result.reads} reads, {result.writes} writes, "
            f"{result.flushes} flushes), {result.throughput_iops:,.0f} iops, "
            f"{result.errors} errors, {result.stalls} stalls",
            f"moved: {result.bytes_read:,} bytes read, "
            f"{result.bytes_written:,} bytes written",
        ]
        for row in self.device.queue_stats():
            if not row["created"] or (row["queue"] != 0
                                      and not row["doorbells"]):
                continue
            kind = "admin" if row["queue"] == 0 else "io"
            lines.append(
                f"queue[{row['queue']}] ({kind}): {row['doorbells']} "
                f"doorbells, {row['fetched']} fetched, {row['completed']} "
                f"completed, {row['errors']} errors"
            )
        return lines

    def _drain(self) -> None:
        """Idle until the device completes everything in flight.  On a
        timed run that means advancing the machine clock to the latest
        pending completion; a stalled or replayed write-back can push
        it out again, hence the loop."""
        device, timing = self.device, self.kernel.vm.timing
        device.sync()
        while device.clock is not None and any(
                q.in_flight for q in device.queues):
            latest = max(entry[0] for q in device.queues
                         for entry in q.in_flight)
            timing.add_cycles(max(latest - timing.cycles, 1.0))
            device.sync()

    def delivered(self) -> int:
        self._drain()
        return sum(q.completed for q in self.device.queues)

    def stranded(self) -> list[str]:
        """Every queue pair must drain completely: no bio left on a
        submission ring (avail head caught up to the doorbelled tail)
        or in flight in the device's completion engine."""
        self._drain()
        problems = []
        for q in self.device.queues:
            if q.in_flight:
                problems.append(
                    f"queue {q.qid} leaked {len(q.in_flight)} in-flight bio(s)")
            if q.created and q.avh != q.avt:
                problems.append(
                    f"queue {q.qid} stranded "
                    f"{(q.avt - q.avh) & 0xFFFFFFFF} submitted bio(s)")
            if q.created and q.fetched != q.completed:
                problems.append(
                    f"queue {q.qid} fetched {q.fetched} but completed "
                    f"{q.completed}")
        return problems


#: Every stack ``SystemConfig.driver`` can name.
STACKS = {stack.name: stack for stack in (NetStack, BlkStack)}

__all__ = ["BlkStack", "NetStack", "STACKS"]

"""The user/kernel syscall boundary both device stacks cross.

A syscall is the measured section of Figure 7: "The latency is measured,
in cycles using the cycle counter, as the time spent in the sendmsg()
call from the user-space test application's point of view" (§4.2).
:class:`SyscallBoundary` owns everything that window contains besides
the driver call itself:

- the entry charge: syscall entry/exit, the core stack traversal
  (socket lookup and qdisc, or the block layer — core-kernel code,
  unguarded) and the per-byte payload copy;
- the EBUSY loop, which models the paper's outliers: when the driver
  reports a full ring the caller is descheduled (~10⁷ cycles, longer on
  each repeat), the device drains while it sleeps, and the call is
  retried, up to ``max_retries`` times;
- the ``syscall:enter`` / ``syscall:exit`` tracepoints and the stall
  count.

Untimed runs (no machine model) charge nothing and report zero latency,
but still drain the device and count a stall on every EBUSY.  Each
stack's boundary (``RawPacketSocket``, ``BlockRequestQueue``) only says
what its calls move and which driver path they run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..vm.machine import MachineModel
from .chardev import EBUSY
from .kernel import Kernel


@dataclass(slots=True)
class SyscallResult:
    rc: int
    latency_cycles: float
    stalled: bool = False
    #: What a read-side call copied out to the caller.
    data: bytes = b""


class SyscallBoundary:
    """One device's user/kernel boundary: charges, retries, tracepoints.

    ``device`` is the device model whose ``sync()`` lets it drain while a
    descheduled caller sleeps.
    """

    def __init__(self, kernel: Kernel, device,
                 machine: Optional[MachineModel] = None,
                 max_retries: int = 1):
        self.kernel = kernel
        self.device = device
        self.machine = machine
        #: Bounded EBUSY retries per call.  The default (1) is the
        #: paper's behaviour: one deschedule, one retry.  Fault-injection
        #: runs raise it so transient driver-path errors are ridden out
        #: with linear backoff instead of surfacing to the caller.
        self.max_retries = max_retries
        self.stalls = 0
        points = kernel.trace.points
        self._tp_enter = points["syscall:enter"]
        self._tp_exit = points["syscall:exit"]

    def _call(self, name: str, nbytes: int,
              op: Callable[[], tuple[int, bytes]]) -> SyscallResult:
        """Cross the boundary for one call moving ``nbytes``; ``op`` runs
        the driver path and returns ``(rc, data)``."""
        tp = self._tp_enter
        if tp.enabled:
            tp.emit(name=name, bytes=nbytes)
        timing = self.kernel.vm.timing
        machine = self.machine
        if machine is None:
            timing = None
        start = 0
        if timing is not None:
            costs = machine.centi
            start = timing.cc
            timing.cc += (costs.syscall + costs.netstack_base
                          + costs.per_byte * nbytes)
        rc, data = op()
        stalled = False
        attempt = 0
        while rc == -EBUSY and attempt < self.max_retries:
            # Descheduled until the device drains (paper: outliers "in
            # excess of 10 million cycles ... when the ring is full and
            # the test application is descheduled").  Repeated EBUSY
            # backs off linearly: the scheduler keeps the starved caller
            # off-CPU longer each time.
            attempt += 1
            stalled = True
            self.stalls += 1
            if timing is not None:
                timing.cc += costs.deschedule * attempt
            # While the caller slept, the device drained and wrote its
            # completions back.
            self.device.sync()
            rc, data = op()
        latency = (timing.cc - start) / 100 if timing is not None else 0.0
        tp = self._tp_exit
        if tp.enabled:
            tp.emit(name=name, rc=rc, cycles=latency, stalled=stalled)
        return SyscallResult(rc, latency, stalled, data)


__all__ = ["SyscallBoundary", "SyscallResult"]

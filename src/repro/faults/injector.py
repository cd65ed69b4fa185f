"""Deterministic device-, driver- and control-plane fault injection.

Faults are *period-based*, not probabilistic: every Nth eligible event
of a kind faults (period 0 = never).  Runs are therefore exactly
reproducible — the property every differential test in this repo is
built on — while still interleaving faults with normal traffic.

One schedule per kind (:data:`KINDS`), one decision path
(:meth:`FaultInjector.fires`): a host holding an injector in its
``fault_injector`` attribute (``None`` = no injection) faults an
eligible event when ``fires(kind)`` answers True.  The kinds, by host:

NIC (:class:`repro.e1000e.device.E1000EDevice`,
:class:`repro.e1000e.netdev.E1000ENetDev`) and IRQ path:

- ``mmio_garble`` — reads of telemetry-class NIC registers (packet and
  octet counters) return all-ones, the classic value a PCIe master
  abort feeds the CPU.  Control/ring registers are never garbled: a
  flaky *counter* models a marginal link without breaking the TX/RX
  protocol the soak's invariants depend on.
- ``dma_stall`` — extra wire-drain latency per DMA'd frame (a
  congested or retraining link), which is also how TX-ring-full storms
  are provoked: stalled drains back the ring up at line rate.
- ``irq_drop`` — swallow the interrupt (lost edge).
- ``xmit_transient`` — the netdev layer reports EBUSY before even
  reaching the driver (qdisc backpressure).

vblk (:class:`repro.vblk.device.VblkDevice`):

- ``vblk_desc_garble`` — the descriptor fetch is torn: the device sees
  an inconsistent snapshot, rejects the request with an error status,
  and the driver's harvest path counts the error.  The request still
  completes, so the functional model never hangs.
- ``vblk_stall`` — extra media-service latency per request (a device
  doing background garbage collection).
- ``vblk_writeback_drop`` — the used-ring write-back is lost on the
  bus; the device's retry engine replays it once a beat later,
  preserving completion order.
- ``vblk_doorbell_drop`` — the submission doorbell latches the new tail
  in the register file but the kick event is swallowed on the bus; the
  device's ring scan (any later sync, cause read, or doorbell) picks
  the posted work up — a lost *event*, never a lost *request*.
- ``vblk_cq_stall`` — a completion-queue drain with matured entries
  hiccups: everything matured on that queue is deferred together
  (per-queue FIFO order preserved).  Untimed runs count the event but
  complete on the same pass, so the model never hangs.

Control plane (:class:`repro.policy.controlplane.PolicyControlPlane`):

- ``publish_drop`` — a per-CPU replica install silently fails (the slot
  keeps its old generation), forcing the publish watchdog to detect the
  partial publish and retry.
- ``publish_stall`` — a grace-period wait stalls (the
  ``synchronize_rcu`` analog never completes for that attempt).
- ``replica_corrupt`` — a successfully installed slot holds a torn
  payload under a valid generation stamp; the guard-side read path
  must detect and repair it before serving any decision.
- ``torn_batch`` — a batch op dies mid-apply, exercising the journal's
  all-or-nothing rollback.
- ``quota_race`` — an applied batch is immediately replayed by a
  simulated racing writer that must lose cleanly (quota/overlap errno)
  without perturbing state.
"""

from __future__ import annotations

from typing import Optional

from ..e1000e import regs

#: Registers eligible for garbling: pure telemetry counters.
_TELEMETRY_OFFSETS = frozenset(
    {regs.GPTC, regs.TOTL, regs.TOTH, regs.GPRC, regs.MPC}
)

_ALL_ONES = 0xFFFF_FFFF

#: Extra cycles one stalled DMA'd frame, media request and completion
#: queue drain cost.
DMA_STALL_CYCLES = 50_000.0
VBLK_STALL_CYCLES = 30_000.0
VBLK_CQ_STALL_CYCLES = 45_000.0

#: kind -> (constructor keyword that sets its period, report key that
#: tallies its faults).  Also the ``kind`` field of ``fault:inject``.
KINDS = {
    "mmio_garble": ("mmio_garble_period", "garbled_reads"),
    "dma_stall": ("dma_stall_period", "stalled_frames"),
    "irq_drop": ("irq_drop_period", "dropped_irqs"),
    "xmit_transient": ("xmit_fail_period", "failed_xmits"),
    "vblk_desc_garble": ("vblk_desc_garble_period", "garbled_descriptors"),
    "vblk_stall": ("vblk_stall_period", "stalled_completions"),
    "vblk_writeback_drop": ("vblk_writeback_drop_period",
                            "dropped_writebacks"),
    "vblk_doorbell_drop": ("vblk_doorbell_drop_period", "dropped_doorbells"),
    "vblk_cq_stall": ("vblk_cq_stall_period", "stalled_cqs"),
    "publish_drop": ("publish_drop_period", "dropped_publishes"),
    "publish_stall": ("publish_stall_period", "stalled_publishes"),
    "replica_corrupt": ("replica_corrupt_period", "corrupted_replicas"),
    "torn_batch": ("torn_batch_period", "torn_batches"),
    "quota_race": ("quota_race_period", "quota_race_storms"),
}


class _Schedule:
    """One kind's schedule: fault every ``period``th of ``events``."""

    __slots__ = ("period", "events", "fired")

    def __init__(self, period: int):
        self.period = period
        self.events = 0
        self.fired = 0


class FaultInjector:
    """Deterministic fault schedules, one per kind in :data:`KINDS`,
    set by ``<kind's keyword>=N`` (every Nth eligible event faults)."""

    def __init__(self, **periods: int):
        options = {option for option, _ in KINDS.values()}
        for option, period in periods.items():
            if option not in options:
                raise TypeError(f"unknown fault schedule {option!r}")
            if period < 0:
                raise ValueError(f"{option} must be >= 0")
        self._schedules = {kind: _Schedule(periods.get(option, 0))
                           for kind, (option, _) in KINDS.items()}
        # fault:inject tracepoint, bound by attach() (None while detached).
        self._tp = None

    def fires(self, kind: str, **trace_args) -> bool:
        """Count one eligible ``kind`` event; True = fault it.  Every
        fault is tallied for :meth:`report` and emitted on
        ``fault:inject`` with ``trace_args``."""
        schedule = self._schedules[kind]
        if schedule.period == 0:
            return False
        schedule.events += 1
        if schedule.events % schedule.period:
            return False
        schedule.fired += 1
        tp = self._tp
        if tp is not None and tp.enabled:
            tp.emit(kind=kind, **trace_args)
        return True

    # -- hooks that answer more than yes or no -------------------------------

    def mmio_garble(self, offset: int) -> Optional[int]:
        """All-ones for every Nth telemetry read; None = read normally."""
        if offset in _TELEMETRY_OFFSETS and self.fires("mmio_garble",
                                                       offset=offset):
            return _ALL_ONES
        return None

    def dma_stall_cycles(self) -> float:
        """Extra wire cycles for every Nth DMA'd frame."""
        return (DMA_STALL_CYCLES
                if self.fires("dma_stall", cycles=DMA_STALL_CYCLES) else 0.0)

    def vblk_completion_stall_cycles(self) -> float:
        """Extra media-service cycles for every Nth request."""
        return (VBLK_STALL_CYCLES
                if self.fires("vblk_stall", cycles=VBLK_STALL_CYCLES) else 0.0)

    def vblk_cq_stall_cycles(self) -> float:
        """Extra write-back deferral for every Nth CQ drain that has
        matured completions pending (0.0 = drain normally)."""
        return (VBLK_CQ_STALL_CYCLES
                if self.fires("vblk_cq_stall", cycles=VBLK_CQ_STALL_CYCLES)
                else 0.0)

    # -- wiring --------------------------------------------------------------

    @staticmethod
    def _hosts(system) -> tuple:
        """Every object of a system that consults a fault injector."""
        return (*(host for stack in system.stacks
                  for host in stack.fault_hosts),
                system.kernel.irq, system.policy.controlplane)

    def attach(self, system) -> "FaultInjector":
        """Hook every fault host of ``system`` (all of its stacks)."""
        for host in self._hosts(system):
            host.fault_injector = self
        self._tp = system.kernel.trace.points["fault:inject"]
        return self

    def detach(self, system) -> None:
        """Unhook the hosts this injector holds (another's stay wired)."""
        for host in self._hosts(system):
            if host.fault_injector is self:
                host.fault_injector = None
        self._tp = None

    def report(self) -> dict[str, int]:
        """Faults injected so far, by report key."""
        return {key: self._schedules[kind].fired
                for kind, (_, key) in KINDS.items()}


__all__ = ["DMA_STALL_CYCLES", "FaultInjector", "KINDS",
           "VBLK_CQ_STALL_CYCLES", "VBLK_STALL_CYCLES"]

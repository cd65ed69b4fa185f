"""The violation -> eject -> rollback -> re-insmod recovery soak.

Drives a hostile module through repeated policy violations in ``eject``
mode while fault injection degrades the device underneath, and audits
the kernel after every ejection: zero leaked kmalloc bytes, zero
orphaned IRQ lines or timers, an empty journal, and a driver that still
moves data.  This is the acceptance harness for the graceful-enforcement
subsystem (paper §5's "cleanly handle forbidden accesses", made
repeatable).

Each cycle runs the same arc on every device stack
(:mod:`repro.core.stacks`), each on its own system and kernel with its
own fault schedule: the e1000e NIC (garbled telemetry reads, DMA
stalls, dropped IRQs, transient xmit failures; it runs interrupt-driven
and reads its transmit counter through the driver once a cycle, so
every schedule has events to fault) and, unless
``vblk=False``, the vblk block stack (torn descriptors, media stalls,
dropped used-ring write-backs, dropped doorbells, stalled completion
queues).  The vblk half runs multi-queue by default (``blk_cpus`` CPUs,
one I/O queue pair each).  After every recovery blast the stack's
device must drain completely: no request stranded on any submission
ring and none leaked in flight.

The report keeps the NIC half's results at the top level and nests the
vblk half's, in the same shape, under ``report["vblk"]``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.pipeline import CompileOptions, compile_module
from ..core.system import CaratKopSystem, SystemConfig
from ..e1000e import regs
from ..kernel.module_loader import LoadError
from .injector import FaultInjector

#: A module that accrues every journal-tracked side-effect kind at init
#: (allocations, an IRQ line, a pending timer, an exported helper), then
#: violates the policy on demand: ``attack(addr)`` stores to a forbidden
#: address, tripping a guard mid-call with all that state live.
HOSTILE_MODULE = r"""
extern void *kmalloc(long size, int flags);
extern void kfree(void *p);
extern int request_irq(int line, char *handler);
extern long mod_timer(char *handler, long delay_us, long arg);
extern int printk(char *fmt, ...);

long *scratch;
long *stash;
long ticks;

__export void hostile_isr(long line) {
    scratch[0] = scratch[0] + 1;
}

__export void hostile_tick(long arg) {
    ticks = ticks + 1;
    mod_timer("hostile_tick", 1000, arg);
}

__export long hostile_ticks(void) { return ticks; }

int init_module(void) {
    scratch = (long *)kmalloc(256, 0);
    stash = (long *)kmalloc(1024, 0);
    if (scratch == null || stash == null) { return -1; }
    scratch[0] = 0;
    ticks = 0;
    if (request_irq(40, "hostile_isr") != 0) { return -1; }
    if (mod_timer("hostile_tick", 1000, 0) <= 0) { return -1; }
    printk("hostile: armed\n");
    return 0;
}

__export long attack(long addr) {
    long *p = (long *)addr;
    *p = 42;
    return *p;
}
"""

HOSTILE_NAME = "hostile"

#: A user-half address the two-region policy always denies.
ATTACK_ADDR = 0x1000

_EFAULT = 14

#: What a garbled (master-aborted) telemetry read returns.
_ALL_ONES = 0xFFFF_FFFF

#: Default fault schedules (every Nth eligible event faults).
NET_FAULTS = dict(mmio_garble_period=7, dma_stall_period=13,
                  irq_drop_period=5, xmit_fail_period=11)
BLK_FAULTS = dict(vblk_desc_garble_period=9, vblk_stall_period=17,
                  vblk_writeback_drop_period=23,
                  vblk_doorbell_drop_period=27, vblk_cq_stall_period=31)


class SoakError(AssertionError):
    """An invariant failed mid-soak; the report so far is attached."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class _Half:
    """One device stack under soak: its system, fault injector, recovery
    workload, and its part of the report."""

    def __init__(self, config: SystemConfig, injector: FaultInjector,
                 report: dict, count: int,
                 workload: Callable[[int], dict]):
        self.system = CaratKopSystem(config)
        self.stack = self.system.stack
        self.injector = injector.attach(self.system)
        self.hostile = compile_module(
            HOSTILE_MODULE,
            CompileOptions(module_name=HOSTILE_NAME,
                           key=self.system.signing_key),
        )
        self.count = count
        #: cycle -> keyword arguments of that cycle's recovery workload.
        self.workload = workload
        #: Reads the device's count of completed ops through the driver
        #: once a cycle (None = the stack has no such counter).
        self.telemetry: Optional[Callable[[], int]] = None
        self.delivered_key = f"delivered_{self.stack.unit}"
        self.report = report
        report.update({"ejections": 0, "leaked_bytes_total": 0,
                       self.delivered_key: 0, "per_cycle": []})

    def finish(self) -> None:
        """Record the final counters and detach the injector."""
        kernel = self.system.kernel
        tallies = self.injector.report()
        self.report.update({
            "violation_faults": kernel.violation_faults,
            "entry_refusals": kernel.entry_refusals,
            "irqs_dropped_by_injector": tallies["dropped_irqs"],
            "injector": tallies,
            "guard_stats": self.system.guard_stats(),
        })
        self.injector.detach(self.system)


def run_soak(
    cycles: int = 50,
    machine: Optional[str] = None,
    engine: str = "compiled",
    blast_size: int = 128,
    blast_count: int = 20,
    injector: Optional[FaultInjector] = None,
    vblk: bool = True,
    blk_count: int = 16,
    vblk_injector: Optional[FaultInjector] = None,
    blk_cpus: int = 2,
    blk_queues="auto",
) -> dict:
    """Run ``cycles`` violation->eject->recovery cycles; returns a report.

    Raises :class:`SoakError` on the first violated invariant.
    """
    report: dict = {"cycles_requested": cycles, "cycles_completed": 0}
    halves = [_Half(
        SystemConfig(machine=machine, enforce_mode="eject", engine=engine),
        injector or FaultInjector(**NET_FAULTS), report, blast_count,
        lambda cycle: {"size": blast_size},
    )]
    net = halves[0].system
    # Ride out injected transient xmit failures instead of surfacing them.
    net.socket.max_retries = 3
    # Interrupt-driven servicing, so the IRQ-drop schedule has edges to
    # drop, and a transmit-counter read, so the garble schedule has
    # telemetry reads to garble.
    net.netdev.enable_interrupts()
    halves[0].telemetry = lambda: net.netdev.read_reg(regs.GPTC)
    if vblk:
        report["vblk"] = {}
        halves.append(_Half(
            SystemConfig(machine=machine, driver="vblk",
                         enforce_mode="eject", engine=engine,
                         cpus=blk_cpus, queues=blk_queues),
            vblk_injector or FaultInjector(**BLK_FAULTS), report["vblk"],
            blk_count,
            lambda cycle: {"nsect": 2, "pattern": "rand", "seed": cycle + 1},
        ))

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise SoakError(message, report)

    def cycle_failed(cycle: int, exc: Exception) -> SoakError:
        """A cycle died mid-rollback (eject/unwind raised through).  Drain
        whatever the journal still holds, verify the drain took, and turn
        the crash into a structured nonzero exit instead of a traceback."""
        drained_modules = 0
        drained_records = 0
        kernels = [half.system.kernel for half in halves]
        for k in kernels:
            for module in k.journal.modules():
                drained_records += k.journal.depth(module)
                k.journal.rollback(module, k)
                drained_modules += 1
        report["error"] = {
            "cycle": cycle,
            "type": type(exc).__name__,
            "detail": str(exc),
            "journal_drained_modules": drained_modules,
            "journal_drained_records": drained_records,
            "journal_empty_after_drain": not any(
                k.journal.modules() for k in kernels),
        }
        return SoakError(
            f"cycle {cycle} failed mid-rollback "
            f"({type(exc).__name__}: {exc}); journal drained "
            f"({drained_modules} module(s), {drained_records} record(s), "
            f"empty={report['error']['journal_empty_after_drain']})",
            report,
        )

    try:
        for cycle in range(cycles):
            try:
                for half in halves:
                    _run_cycle(cycle, half, check)
            except SoakError:
                raise
            except Exception as e:
                raise cycle_failed(cycle, e) from e
            report["cycles_completed"] = cycle + 1
    finally:
        # A failed soak's report carries the same counters and fault
        # tallies as a clean one.
        for half in halves:
            half.finish()
    return report


def _run_cycle(cycle: int, half: _Half, check) -> None:
    """One violation->eject->recovery cycle on one stack (invariants via
    ``check``)."""
    kernel = half.system.kernel
    where = f"cycle {cycle} [{half.stack.name}]"
    if cycle > 0:
        check(
            half.system.policy_manager.unquarantine(HOSTILE_NAME),
            f"{where}: quarantine was not in place to lift",
        )
    alloc_base = kernel.kmalloc_allocator.snapshot()
    irq_base = len(kernel.irq.actions())
    timer_base = kernel.timers.pending()

    loaded = kernel.insmod(half.hostile)
    check(
        kernel.journal.depth(HOSTILE_NAME) >= 4,
        f"{where}: journal missed the module's side effects",
    )

    rc = kernel.run_function(loaded, "attack", [ATTACK_ADDR])
    check(rc == -_EFAULT, f"{where}: attack returned {rc}, wanted -EFAULT")
    check(HOSTILE_NAME not in kernel.lsmod(),
          f"{where}: module still resident after eject")
    check(loaded.ejected, f"{where}: eject flag not set")
    check(kernel.panicked is None,
          f"{where}: kernel panicked ({kernel.panicked})")

    alloc_now = kernel.kmalloc_allocator.snapshot()
    leaked = alloc_now[1] - alloc_base[1]
    check(leaked == 0, f"{where}: leaked {leaked} kmalloc bytes")
    check(alloc_now[0] == alloc_base[0],
          f"{where}: leaked allocations ({alloc_now[0] - alloc_base[0]})")
    check(len(kernel.irq.actions()) == irq_base,
          f"{where}: orphaned IRQ lines")
    check(kernel.timers.pending() == timer_base, f"{where}: orphaned timers")
    check(kernel.journal.depth(HOSTILE_NAME) == 0,
          f"{where}: journal not drained")

    if cycle == 0:
        # The quarantine must hold until explicitly lifted.
        try:
            kernel.insmod(half.hostile)
        except LoadError:
            pass
        else:
            check(False, f"{where}: quarantined module was allowed back in")

    # The driver survived: a recovery blast moves every op end to end
    # and the device drains completely afterwards.
    stack = half.stack
    before = stack.delivered()
    result = stack.workload(half.count, **half.workload(cycle))
    delivered = stack.delivered() - before
    check(result.errors == 0 and delivered == half.count,
          f"{where}: driver moved {delivered}/{half.count} "
          f"{stack.unit} ({result.errors} errors)")
    for problem in stack.stranded():
        check(False, f"{where}: {problem}")
    if half.telemetry is not None:
        # The driver sees the true count or, when the read is garbled,
        # all-ones — never a plausible wrong count.
        counted = half.telemetry()
        check(counted in (stack.delivered(), _ALL_ONES),
              f"{where}: telemetry read {counted:#x}, device moved "
              f"{stack.delivered()}")

    report = half.report
    report["ejections"] += 1
    report["leaked_bytes_total"] += leaked
    report[half.delivered_key] += delivered
    report["per_cycle"].append({
        "cycle": cycle,
        "rc": rc,
        "leaked_bytes": leaked,
        "delivered": delivered,
        "rollback": kernel.journal.rollbacks[-1],
    })


__all__ = ["ATTACK_ADDR", "BLK_FAULTS", "HOSTILE_MODULE", "HOSTILE_NAME",
           "NET_FAULTS", "SoakError", "run_soak"]

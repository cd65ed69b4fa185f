"""The violation -> eject -> rollback -> re-insmod recovery soak.

Drives a hostile module through repeated policy violations in ``eject``
mode while fault injection degrades the device underneath, and audits
the kernel after every ejection: zero leaked kmalloc bytes, zero
orphaned IRQ lines or timers, an empty journal, and a driver that still
moves data.  This is the acceptance harness for the graceful-enforcement
subsystem (paper §5's "cleanly handle forbidden accesses", made
repeatable).

One kernel holds every device stack (:mod:`repro.core.stacks`) under
one fault schedule: the e1000e NIC (garbled telemetry reads, DMA
stalls, dropped IRQs, transient xmit failures; it runs interrupt-driven
and reads its transmit counter through the driver once a cycle, so
every schedule has events to fault) and, unless ``vblk=False``, the
vblk block stack (torn descriptors, media stalls, dropped used-ring
write-backs, dropped doorbells, stalled completion queues; one I/O
queue pair per CPU).  Each cycle inserts and ejects the hostile module
once, which must leave every driver resident with its journal
untouched.  Then each stack in turn runs a recovery blast while the
other stays loaded, and its device must drain completely: no request
stranded on any submission ring and none leaked in flight.

The report keeps the NIC's results at the top level and nests the vblk
stack's, in the same shape, under ``report["vblk"]``; the kernel-wide
counters and the one fault tally appear once, at the top.
"""

from __future__ import annotations

from typing import Optional

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


def run_soak(
    cycles: int = 50,
    machine: Optional[str] = None,
    engine: str = "compiled",
    blast_size: int = 128,
    blast_count: int = 20,
    injector: Optional[FaultInjector] = None,
    vblk: bool = True,
    blk_count: int = 16,
    cpus: int = 2,
) -> dict:
    """Run ``cycles`` violation->eject->recovery cycles; returns a report.

    Raises :class:`SoakError` on the first violated invariant.
    """
    report: dict = {"cycles_requested": cycles, "cycles_completed": 0}
    system = CaratKopSystem(SystemConfig(
        machine=machine, driver=("e1000e", "vblk") if vblk else "e1000e",
        enforce_mode="eject", engine=engine, cpus=cpus, queues="auto",
    ))
    kernel = system.kernel
    injector = (injector or FaultInjector(**NET_FAULTS, **BLK_FAULTS)
                ).attach(system)
    hostile = compile_module(
        HOSTILE_MODULE,
        CompileOptions(module_name=HOSTILE_NAME, key=system.signing_key),
    )
    # Ride out injected transient xmit failures instead of surfacing them,
    # and service the NIC interrupt-driven, so the IRQ-drop schedule has
    # edges to drop.
    system.socket.max_retries = 3
    system.netdev.enable_interrupts()
    # Per stack: its report section, ops per recovery blast, and cycle ->
    # keyword arguments of that cycle's blast.
    recoveries = [(report, blast_count, lambda cycle: {"size": blast_size})]
    if vblk:
        recoveries.append((report.setdefault("vblk", {}), blk_count,
                           lambda cycle: {"nsect": 2, "pattern": "rand",
                                          "seed": cycle + 1}))
    for stack, (part, _, _) in zip(system.stacks, recoveries):
        part.update({"ejections": 0, "leaked_bytes_total": 0,
                     f"delivered_{stack.unit}": 0, "per_cycle": []})

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise SoakError(message, report)

    def cycle_failed(cycle: int, exc: Exception) -> SoakError:
        """A cycle died mid-rollback (eject/unwind raised through).  Drain
        whatever the journal still holds, verify the drain took, and turn
        the crash into a structured nonzero exit instead of a traceback."""
        journal = kernel.journal
        modules = journal.modules()
        drained_records = sum(journal.depth(module) for module in modules)
        for module in modules:
            journal.rollback(module, kernel)
        report["error"] = {
            "cycle": cycle,
            "type": type(exc).__name__,
            "detail": str(exc),
            "journal_drained_modules": len(modules),
            "journal_drained_records": drained_records,
            "journal_empty_after_drain": not journal.modules(),
        }
        return SoakError(
            f"cycle {cycle} failed mid-rollback "
            f"({type(exc).__name__}: {exc}); journal drained "
            f"({len(modules)} module(s), {drained_records} record(s), "
            f"empty={report['error']['journal_empty_after_drain']})",
            report,
        )

    try:
        for cycle in range(cycles):
            try:
                _run_cycle(cycle, system, hostile, recoveries, check)
            except SoakError:
                raise
            except Exception as e:
                raise cycle_failed(cycle, e) from e
            report["cycles_completed"] = cycle + 1
    finally:
        # A failed soak's report carries the same counters and fault
        # tallies as a clean one.
        tallies = injector.report()
        report.update({
            "violation_faults": kernel.violation_faults,
            "entry_refusals": kernel.entry_refusals,
            "irqs_dropped_by_injector": tallies["dropped_irqs"],
            "injector": tallies,
            "guard_stats": system.guard_stats(),
        })
        injector.detach(system)
    return report


def _run_cycle(cycle: int, system: CaratKopSystem, hostile,
               recoveries: list, check) -> None:
    """One violation->eject cycle on the shared kernel, then a recovery
    blast on every stack (invariants via ``check``)."""
    kernel = system.kernel
    where = f"cycle {cycle}"
    if cycle > 0:
        check(
            system.policy_manager.unquarantine(HOSTILE_NAME),
            f"{where}: quarantine was not in place to lift",
        )
    alloc_base = kernel.kmalloc_allocator.snapshot()
    irq_base = len(kernel.irq.actions())
    timer_base = kernel.timers.pending()
    journal = kernel.journal
    drivers = [stack.name for stack in system.stacks]
    journal_base = [journal.depth_by_kind(name) for name in drivers]

    loaded = kernel.insmod(hostile)
    check(
        journal.depth(HOSTILE_NAME) >= 4,
        f"{where}: journal missed the module's side effects",
    )

    rc = kernel.run_function(loaded, "attack", [ATTACK_ADDR])
    check(rc == -_EFAULT, f"{where}: attack returned {rc}, wanted -EFAULT")
    resident = kernel.lsmod()
    check(HOSTILE_NAME not in resident,
          f"{where}: module still resident after eject")
    check(all(name in resident for name in drivers),
          f"{where}: the eject took a driver with it ({resident})")
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
    check(journal.depth(HOSTILE_NAME) == 0, f"{where}: journal not drained")
    check([journal.depth_by_kind(name) for name in drivers] == journal_base,
          f"{where}: the rollback touched a driver's journal")
    row = {"cycle": cycle, "rc": rc, "leaked_bytes": leaked,
           "rollback": journal.rollbacks[-1]}

    if cycle == 0:
        # The quarantine must hold until explicitly lifted.
        try:
            kernel.insmod(hostile)
        except LoadError:
            pass
        else:
            check(False, f"{where}: quarantined module was allowed back in")

    # Every driver survived: a recovery blast on each stack moves every
    # op end to end and the device drains completely afterwards.
    for stack, (part, count, workload) in zip(system.stacks, recoveries):
        where = f"cycle {cycle} [{stack.name}]"
        before = stack.delivered()
        result = stack.workload(count, **workload(cycle))
        delivered = stack.delivered() - before
        check(result.errors == 0 and delivered == count,
              f"{where}: driver moved {delivered}/{count} "
              f"{stack.unit} ({result.errors} errors)")
        for problem in stack.stranded():
            check(False, f"{where}: {problem}")
        part["ejections"] += 1
        part["leaked_bytes_total"] += leaked
        part[f"delivered_{stack.unit}"] += delivered
        part["per_cycle"].append({**row, "delivered": delivered})

    # The NIC driver reads its transmit counter once a cycle, so the
    # garble schedule has telemetry reads to garble.  It sees the true
    # count or, when the read is garbled, all-ones — never a plausible
    # wrong count.
    net = system.stack
    counted = net.netdev.read_reg(regs.GPTC)
    check(counted in (net.delivered(), _ALL_ONES),
          f"cycle {cycle} [{net.name}]: telemetry read {counted:#x}, device "
          f"moved {net.delivered()}")


__all__ = ["ATTACK_ADDR", "BLK_FAULTS", "HOSTILE_MODULE", "HOSTILE_NAME",
           "NET_FAULTS", "SoakError", "run_soak"]

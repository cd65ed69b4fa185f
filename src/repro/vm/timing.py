"""Cycle accounting for interpreted module code."""

from __future__ import annotations

from .machine import MachineModel


class CycleCounter:
    """Accumulates visible cycles and event counts during interpretation.

    The counter is the VM-side half of the trace-calibrated methodology
    (DESIGN.md §7): the interpreter reports every executed op, guard, and
    MMIO access; the bench harness reads the totals per packet to build
    the per-configuration cost distribution.
    """

    __slots__ = (
        "machine",
        "cycles",
        "instructions",
        "mmio_reads",
        "mmio_writes",
        "loads",
        "stores",
        "calls",
    )

    def __init__(self, machine: MachineModel):
        self.machine = machine
        self.reset()

    def reset(self) -> None:
        self.cycles = 0.0
        self.instructions = 0
        self.mmio_reads = 0
        self.mmio_writes = 0
        self.loads = 0
        self.stores = 0
        self.calls = 0

    # The interpreter calls these in its hot loop; keep them branch-light.

    def add_op(self, opcode: str) -> None:
        self.instructions += 1
        self.cycles += self.machine.op_cost(opcode)

    def add_guard(self, entries_scanned: int) -> None:
        """Charge one guard's cycles.  The engine's ``guard_checks`` and
        the policy's ledger count the guard; this counter does not."""
        self.cycles += self.machine.guard_cost(entries_scanned)

    def add_mmio_read(self) -> None:
        self.mmio_reads += 1
        self.cycles += self.machine.mmio_read_cycles

    def add_mmio_write(self) -> None:
        self.mmio_writes += 1
        self.cycles += self.machine.mmio_write_cycles

    def add_cycles(self, n: float) -> None:
        self.cycles += n

    def add_delay_us(self, usec: float) -> None:
        self.cycles += self.machine.cycles_for_us(usec)

    def snapshot(self) -> dict[str, float]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "mmio_reads": self.mmio_reads,
            "mmio_writes": self.mmio_writes,
            "loads": self.loads,
            "stores": self.stores,
            "calls": self.calls,
        }

    def delta_since(self, snap: dict[str, float]) -> dict[str, float]:
        now = self.snapshot()
        return {k: now[k] - snap[k] for k in now}


__all__ = ["CycleCounter"]

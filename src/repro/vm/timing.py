"""Cycle accounting for interpreted module code."""

from __future__ import annotations

from .machine import MachineModel


def centicycles_at(cycles: float) -> int:
    """A float cycle stamp (a device's completion time) on the clock,
    rounded once: the nearest centicycle, or the next one up if that
    one's ``cycles`` view falls short of the stamp."""
    cc = round(cycles * 100)
    return cc + 1 if cc / 100 < cycles else cc


class CycleCounter:
    """Accumulates visible cycles and event counts during interpretation.

    The counter is the VM-side half of the trace-calibrated methodology
    (DESIGN.md §7): the interpreter reports every executed op, guard, and
    MMIO access; the bench harness reads the totals per packet to build
    the per-configuration cost distribution.

    The clock is ``cc``, an integer count of centicycles, charged from
    the machine's :class:`~repro.vm.machine.Centicycles` table; integer
    sums do not depend on their order, so both engines reach the same
    value however they group the charges.  ``cycles`` is its read-only
    float view for readers.
    """

    __slots__ = (
        "machine",
        "cc",
        "instructions",
        "mmio_reads",
        "mmio_writes",
        "loads",
        "stores",
        "calls",
        "_op_cc",
    )

    def __init__(self, machine: MachineModel):
        self.machine = machine
        self._op_cc = machine.centi.ops
        self.reset()

    def reset(self) -> None:
        self.cc = 0
        self.instructions = 0
        self.mmio_reads = 0
        self.mmio_writes = 0
        self.loads = 0
        self.stores = 0
        self.calls = 0

    @property
    def cycles(self) -> float:
        """The clock in cycles (``cc / 100``)."""
        return self.cc / 100

    # The interpreter calls these in its hot loop; keep them branch-light.

    def add_op(self, opcode: str) -> None:
        self.instructions += 1
        self.cc += self._op_cc.get(opcode, 100)

    def add_guard(self, entries_scanned: int) -> None:
        """Charge one guard's cycles.  The engine's ``guard_checks`` and
        the policy's ledger count the guard; this counter does not."""
        self.cc += self.machine.centi.guard(entries_scanned)

    def add_mmio_read(self) -> None:
        self.mmio_reads += 1
        self.cc += self.machine.centi.mmio_read

    def add_mmio_write(self) -> None:
        self.mmio_writes += 1
        self.cc += self.machine.centi.mmio_write

    def add_cycles(self, n: float) -> None:
        """Let ``n`` cycles pass, rounded once to centicycles."""
        self.cc += round(n * 100)

    def add_delay_us(self, usec: float) -> None:
        self.cc += self.machine.centicycles_for_us(usec)

    def snapshot(self) -> dict[str, float]:
        return {
            "cc": self.cc,
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
        delta = {k: now[k] - snap[k] for k in now}
        delta["cycles"] = delta["cc"] / 100
        return delta


__all__ = ["CycleCounter", "centicycles_at"]

"""Interrupt delivery: devices raise IRQs, registered module handlers run.

Models the request_irq/ISR half of the driver contract.  A device is
assigned a line at registration; when it raises, the kernel immediately
invokes the handler the driver registered (simulation is single-threaded,
so 'immediately' is exact: the ISR runs as module code on the VM, under
guards, like everything else the module does).

Re-entrancy is prevented per line, matching the hardware's masked-while-
servicing behaviour — a device raising from within its own ISR (e.g. the
ISR's register reads trigger more device activity) is coalesced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .module_loader import LoadedModule


class IrqError(ValueError):
    pass


@dataclass
class IrqAction:
    line: int
    module: "LoadedModule"
    handler_name: str
    name: str
    fired: int = 0
    coalesced: int = 0


class IrqController:
    """Line -> action registry + dispatch."""

    MAX_LINES = 64

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._actions: dict[int, IrqAction] = {}
        self._servicing: set[int] = set()
        self._next_line = 16  # low lines "reserved" for legacy devices
        #: Fault injector (see :mod:`repro.faults`): its ``irq_drop``
        #: schedule may swallow an interrupt before dispatch, modelling a
        #: lost/level-glitched IRQ.  None = no injection.
        self.fault_injector = None
        self._tp_raise = kernel.trace.points["irq:raise"]
        self._tp_dispatch = kernel.trace.points["irq:dispatch"]
        self._tp_coalesce = kernel.trace.points["irq:coalesce"]

    def actions(self) -> dict[int, IrqAction]:
        """A snapshot of the line -> action registry (public read API
        for /proc, /proc/trace_stat, and tests)."""
        return dict(self._actions)

    def allocate_line(self) -> int:
        line = self._next_line
        if line >= self.MAX_LINES:
            raise IrqError("out of interrupt lines")
        self._next_line += 1
        return line

    def request_irq(
        self,
        line: int,
        module: "LoadedModule",
        handler_name: str,
        name: str = "",
    ) -> IrqAction:
        """The driver-side registration (request_irq analog)."""
        if line in self._actions:
            raise IrqError(f"IRQ {line} already requested by "
                           f"{self._actions[line].module.name}")
        fn = module.ir.functions.get(handler_name)
        if fn is None or fn.is_declaration:
            raise IrqError(
                f"module {module.name} does not define @{handler_name}"
            )
        if len(fn.args) != 1:
            raise IrqError("IRQ handlers take exactly one argument (the line)")
        action = IrqAction(line, module, handler_name, name or module.name)
        self._actions[line] = action
        self.kernel.journal.record(module.name, "irq", line)
        self.kernel.dmesg(f"irq {line}: registered for {action.name}")
        return action

    def free_irq(self, line: int, module: "LoadedModule") -> None:
        action = self._actions.get(line)
        if action is None or action.module is not module:
            raise IrqError(f"IRQ {line} not owned by {module.name}")
        del self._actions[line]
        self.kernel.journal.forget(module.name, "irq", line)
        self.kernel.dmesg(f"irq {line}: freed")

    def force_release_line(self, line: int, module_name: str) -> bool:
        """Rollback-side release: drop the line if ``module_name`` still
        holds it (the journal replays this; no dmesg, the eject summary
        reports the count)."""
        action = self._actions.get(line)
        if action is None or action.module.name != module_name:
            return False
        del self._actions[line]
        return True

    def raise_irq(self, line: int) -> bool:
        """Device-side: deliver the interrupt.  Returns True if a handler
        ran; False if the line is unclaimed (spurious) or masked."""
        tp = self._tp_raise
        if tp.enabled:
            tp.emit(line=line)
        if not self.kernel.interrupts_enabled:
            return False
        if (self.fault_injector is not None
                and self.fault_injector.fires("irq_drop", line=line)):
            return False
        action = self._actions.get(line)
        if action is None:
            self.kernel.dmesg(f"irq {line}: spurious interrupt")
            return False
        if line in self._servicing:
            action.coalesced += 1
            tp = self._tp_coalesce
            if tp.enabled:
                tp.emit(line=line)
            return False
        self._servicing.add(line)
        try:
            action.fired += 1
            tp = self._tp_dispatch
            if tp.enabled:
                tp.emit(
                    line=line,
                    handler=action.handler_name,
                    module=action.module.name,
                )
            self.kernel.run_function(action.module, action.handler_name, [line])
        finally:
            self._servicing.discard(line)
        return True

    def action_for(self, line: int) -> Optional[IrqAction]:
        return self._actions.get(line)

    def release_module(self, module: "LoadedModule") -> int:
        """Drop every line a module holds (rmmod cleanup path).  Returns
        the number of lines released."""
        lines = [l for l, a in self._actions.items() if a.module is module]
        for line in lines:
            del self._actions[line]
            self.kernel.journal.forget(module.name, "irq", line)
        return len(lines)


__all__ = ["IrqAction", "IrqController", "IrqError"]

"""Kernel timers: the substrate for heartbeat-style modules.

The paper motivates CARAT KOP with its authors' own modules, including
"fast timer delivery for heartbeat scheduling" (§1).  This is the timer
half: a monotonic clock (the VM's cycle counter when a machine model is
active, a logical microsecond counter otherwise) plus a classic
timer wheel with mod_timer/del_timer semantics.

Timers fire when simulated time advances past their expiry
(``Kernel.advance_time``); handlers are module functions executed on the
VM — under guards, like every other module entry point.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .module_loader import LoadedModule


@dataclass(order=True)
class _Entry:
    expires_us: float
    seq: int
    timer: "KernelTimer" = field(compare=False)


@dataclass
class KernelTimer:
    timer_id: int
    module: "LoadedModule"
    handler_name: str
    arg: int
    expires_us: float
    cancelled: bool = False
    fired: int = 0


class TimerWheel:
    """Pending-timer queue keyed on the kernel's monotonic clock."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._heap: list[_Entry] = []
        self._timers: dict[int, KernelTimer] = {}
        self._ids = itertools.count(1)
        self._running = False
        self._tp_fire = kernel.trace.points["timer:fire"]

    def mod_timer(
        self,
        module: "LoadedModule",
        handler_name: str,
        delay_us: float,
        arg: int = 0,
        timer_id: Optional[int] = None,
    ) -> int:
        """Arm (or re-arm) a timer; returns its id.

        The handler must be a defined module function of one argument.
        """
        fn = module.ir.functions.get(handler_name)
        if fn is None or fn.is_declaration:
            raise ValueError(
                f"module {module.name} does not define @{handler_name}"
            )
        if len(fn.args) != 1:
            raise ValueError("timer handlers take exactly one argument")
        if delay_us < 0:
            raise ValueError("negative delay")
        expires = self.kernel.time_us() + delay_us
        if timer_id is not None and timer_id in self._timers:
            old = self._timers[timer_id]
            old.cancelled = True  # lazy-delete the heap entry
            timer = KernelTimer(
                timer_id, module, handler_name, arg, expires,
                fired=old.fired,
            )
        else:
            timer_id = next(self._ids)
            timer = KernelTimer(timer_id, module, handler_name, arg, expires)
        self._timers[timer_id] = timer
        heapq.heappush(self._heap, _Entry(expires, next(self._ids), timer))
        self.kernel.journal.record(module.name, "timer", timer_id)
        return timer_id

    def del_timer(self, timer_id: int) -> bool:
        timer = self._timers.pop(timer_id, None)
        if timer is None:
            return False
        timer.cancelled = True
        self.kernel.journal.forget(timer.module.name, "timer", timer_id)
        return True

    def pending(self) -> int:
        return len(self._timers)

    def run_due(self) -> int:
        """Fire every timer whose expiry has passed.  Handlers may re-arm
        (heartbeats do); re-arms past 'now' wait for the next advance."""
        if self._running:
            return 0  # no nested expiry processing
        self._running = True
        fired = 0
        try:
            now = self.kernel.time_us()
            while self._heap and self._heap[0].expires_us <= now:
                if fired >= 10_000:
                    # A zero-period self-rearming timer would spin forever
                    # inside one advance; break like a watchdog would.
                    self.kernel.dmesg(
                        "timer storm: 10000 expirations in one advance"
                    )
                    break
                entry = heapq.heappop(self._heap)
                timer = entry.timer
                if timer.cancelled or entry.expires_us != timer.expires_us:
                    continue  # deleted or re-armed since queued
                # One-shot semantics: the handler re-arms if it wants more.
                self._timers.pop(timer.timer_id, None)
                self.kernel.journal.forget(
                    timer.module.name, "timer", timer.timer_id
                )
                timer.fired += 1
                fired += 1
                tp = self._tp_fire
                if tp.enabled:
                    tp.emit(
                        timer_id=timer.timer_id,
                        handler=timer.handler_name,
                        module=timer.module.name,
                    )
                self.kernel.run_function(
                    timer.module, timer.handler_name, [timer.arg]
                )
        finally:
            self._running = False
        return fired

    def release_module(self, module: "LoadedModule") -> int:
        """Cancel every pending timer a module owns; returns the count."""
        tids = [t for t, timer in self._timers.items()
                if timer.module is module]
        for tid in tids:
            self.del_timer(tid)
        return len(tids)


__all__ = ["KernelTimer", "TimerWheel"]

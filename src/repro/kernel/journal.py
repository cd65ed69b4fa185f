"""The kernel transaction journal: per-module side-effect bookkeeping.

Paper §5 names clean module ejection as future work; the hard part of
ejection is knowing what to undo.  The journal records every kernel-side
side effect a module accrues while loaded — kmalloc allocations,
requested IRQ lines, pending timers, exported symbols, chardev
registrations — as it happens (the natives and subsystems notify on both
the do and the undo), so :meth:`rollback` can withdraw all of it in
reverse order and leave the rest of the machine intact.

Records are attributed by ``ctx.current_module`` at native-dispatch time
(both execution engines set it before invoking a native), so only module
code is journaled; core-kernel allocations (skbs, interpreter stacks)
are deliberately not — ejecting a module must not free the kernel's own
state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

#: Record kinds, in the order /proc/journal reports them.  ``policy``
#: records are the control plane's generalization: instead of a kernel
#: resource keyed by handle, they carry their own ``undo`` callable
#: (the inverse of one policy mutation), so a torn batch or a staged
#: generation can be withdrawn through exactly the same rollback path
#: that module ejection uses.
KINDS = ("kmalloc", "irq", "timer", "symbol", "chardev", "policy")


class TransactionJournal:
    """Side-effect records per module, insertion-ordered for rollback."""

    def __init__(self) -> None:
        # module -> {(kind, key): info}; dicts preserve insertion order,
        # which rollback walks in reverse (undo is LIFO).
        self._records: dict[str, dict[tuple, dict]] = {}
        #: Rollback summaries of past ejections (newest last).
        self.rollbacks: list[dict] = []

    # -- recording ----------------------------------------------------------

    def record(self, module: str, kind: str, key, **info) -> None:
        self._records.setdefault(module, {})[(kind, key)] = info

    def forget(self, module: str, kind: str, key) -> None:
        records = self._records.get(module)
        if records is not None:
            records.pop((kind, key), None)

    def forget_key(self, kind: str, key) -> None:
        """Drop a record when the undoing caller can't name the module
        (e.g. kfree: any code may free memory another module allocated)."""
        for records in self._records.values():
            if records.pop((kind, key), None) is not None:
                return

    def drop(self, module: str) -> None:
        """Discard a module's records without undoing them (rmmod path:
        the module's own cleanup ran; whatever it left is a leak, exactly
        as in Linux)."""
        self._records.pop(module, None)

    # -- introspection ------------------------------------------------------

    def modules(self) -> list[str]:
        return sorted(m for m, r in self._records.items() if r)

    def depth(self, module: str) -> int:
        return len(self._records.get(module, ()))

    def depth_by_kind(self, module: str) -> dict[str, int]:
        out = {k: 0 for k in KINDS}
        for (kind, _key) in self._records.get(module, {}):
            out[kind] = out.get(kind, 0) + 1
        return out

    # -- rollback -----------------------------------------------------------

    def rollback(self, module: str, kernel: "Kernel") -> dict:
        """Undo every journaled side effect of ``module``, newest first.

        Returns a summary dict (also appended to :attr:`rollbacks`).
        Idempotent per record: each undo re-checks current ownership, so
        a record the module already undid itself is skipped, never
        double-freed.
        """
        records = list(self._records.get(module, {}).items())
        summary = {
            "module": module,
            "kmalloc_allocations": 0,
            "kmalloc_bytes": 0,
            "irqs": 0,
            "timers": 0,
            "symbols": 0,
            "chardevs": 0,
            "policy_ops": 0,
        }
        allocator = kernel.kmalloc_allocator
        symbols_to_retire = False
        # Rollback is a cold path; one registry lookup covers all records.
        tp = kernel.trace.points["journal:rollback"]
        for (kind, key), _info in reversed(records):
            if tp.enabled:
                tp.emit(module=module, kind=kind, key=key)
            if kind == "kmalloc":
                if allocator.owns(key):
                    summary["kmalloc_bytes"] += allocator.usable_size(key)
                    allocator.kfree(key)
                    summary["kmalloc_allocations"] += 1
            elif kind == "irq":
                if kernel.irq.force_release_line(key, module):
                    summary["irqs"] += 1
            elif kind == "timer":
                if kernel.timers.del_timer(key):
                    summary["timers"] += 1
            elif kind == "symbol":
                symbols_to_retire = True
                summary["symbols"] += 1
            elif kind == "chardev":
                kernel.devices.unregister(key)
                summary["chardevs"] += 1
            elif kind == "policy":
                undo = _info.get("undo")
                if undo is not None:
                    undo()
                summary["policy_ops"] += 1
        if symbols_to_retire:
            kernel.retire_symbols(module)
        self._records.pop(module, None)
        self.rollbacks.append(summary)
        return summary


__all__ = ["KINDS", "TransactionJournal"]

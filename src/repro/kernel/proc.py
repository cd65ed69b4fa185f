"""/proc-style introspection: the operator's window into the kernel.

Read-only text files summarizing live kernel state, in the spirit of the
Linux originals.  ``/proc/carat`` is the CARAT KOP-specific one: the
active policy, its index structure, and guard statistics — what an
operator consults before deciding whether a DENY in dmesg was cause (1),
(2), or (3) from paper §3.1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class ProcFS:
    """Lazily rendered read-only /proc files."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._files: dict[str, Callable[[], str]] = {
            "/proc/modules": self._modules,
            "/proc/interrupts": self._interrupts,
            "/proc/meminfo": self._meminfo,
            "/proc/devices": self._devices,
            "/proc/carat": self._carat,
            "/proc/journal": self._journal,
            "/proc/trace": self._trace,
            "/proc/trace_stat": self._trace_stat,
        }

    def read(self, path: str) -> str:
        render = self._files.get(path)
        if render is None:
            raise FileNotFoundError(path)
        return render()

    def paths(self) -> list[str]:
        return sorted(self._files)

    # -- renderers ------------------------------------------------------------

    def _modules(self) -> str:
        lines = []
        for name, mod in sorted(self.kernel.loader.loaded.items()):
            guards = mod.compiled.guard_count
            prot = "protected" if mod.compiled.is_protected else "unprotected"
            lines.append(
                f"{name} {mod.size} refcnt={mod.refcount} {prot} "
                f"guards={guards} base={mod.base:#x}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def _interrupts(self) -> str:
        lines = []
        actions = self.kernel.irq.actions()
        for line in sorted(actions):
            a = actions[line]
            lines.append(
                f"{line:>4}: {a.fired:>10} {a.coalesced:>8} {a.name}"
            )
        header = f"{'IRQ':>4}  {'fired':>9} {'coalsc':>8} device\n"
        return header + "\n".join(lines) + ("\n" if lines else "")

    def _meminfo(self) -> str:
        km = self.kernel.kmalloc_allocator
        pa = self.kernel.page_allocator
        total = self.kernel.ram.size
        return (
            f"MemTotal:       {total // 1024} kB\n"
            f"PagesAllocated: {pa.allocated_pages}\n"
            f"KmallocLive:    {km.live_allocations}\n"
            f"KmallocBytes:   {km.bytes_allocated}\n"
            f"Resident:       {self.kernel.ram.resident_bytes // 1024} kB\n"
        )

    def _devices(self) -> str:
        return "\n".join(self.kernel.devices.paths()) + "\n"

    def _carat(self) -> str:
        from ..policy.module import DEVICE_PATH

        device = self.kernel.devices.get(DEVICE_PATH)
        if device is None:
            return "carat: no policy module loaded\n"
        policy = device  # CaratPolicyModule registers itself as the chardev
        s = policy.stats
        lines = [
            f"index: {policy.index.name}",
            f"enforce: {'audit-only' if policy.mode == 'audit' else 'on'}",
            f"checks: {s.checks}",
            f"allowed: {s.allowed}",
            f"denied: {s.denied}",
            f"entries_scanned: {s.entries_scanned}",
            f"comparisons: {s.comparisons}",
            f"structure_checks: {s.structure_checks}",
            "mean_comparisons_per_check: " + (
                f"{s.comparisons / s.structure_checks:.2f}"
                if s.structure_checks else "0.00"
            ),
            f"intrinsic_checks: {s.intrinsic_checks}",
            f"intrinsic_denied: {s.intrinsic_denied}",
        ]
        # Per-CPU breakdown of the merged counters above (the totals are
        # sums over these rows); single-CPU output stays byte-identical.
        per_cpu = getattr(policy, "stats_per_cpu", None)
        if per_cpu is not None:
            rows = per_cpu()
            if len(rows) > 1:
                for cpu, row in enumerate(rows):
                    lines.append(
                        f"cpu{cpu}: checks={row['checks']} "
                        f"allowed={row['allowed']} denied={row['denied']} "
                        f"entries_scanned={row['entries_scanned']} "
                        f"comparisons={row['comparisons']} "
                        f"structure_checks={row['structure_checks']} "
                        f"cache_hits={row['guard_cache_hits']} "
                        f"cache_misses={row['guard_cache_misses']}"
                    )
        calls = getattr(policy, "allowed_calls", None)
        lines.append(
            "call_policy: allow-all" if calls is None
            else f"call_policy: allowlist({len(calls)})"
        )
        mode = getattr(policy, "mode", None)
        if mode is not None:
            lines.append(f"mode: {mode}")
            for name, override in sorted(policy.module_modes.items()):
                lines.append(f"mode[{name}]: {override}")
            for name, count in sorted(policy.violations.items()):
                lines.append(f"violations[{name}]: {count}")
        # Per-driver guard traffic: which module's accesses the guards
        # actually checked (and denied), merged across CPUs.
        driver_stats = getattr(policy, "driver_stats", None)
        if driver_stats is not None:
            for name, row in driver_stats().items():
                lines.append(
                    f"driver[{name}]: checks={row['checks']} "
                    f"denied={row['denied']}"
                )
        kernel = self.kernel
        # Per-queue block-device accounting (NVMe-style multi-queue vblk):
        # one row per created queue, admin queue first.  The provider is
        # pure host-side device state, so rendering never runs module
        # code or advances the simulated clock.
        blk_queues = getattr(kernel, "blk_queue_stats", None)
        if blk_queues is not None:
            for row in blk_queues():
                if not row["created"]:
                    continue
                kind = "admin" if row["queue"] == 0 else "io"
                lines.append(
                    f"queue[{row['queue']}]: {kind} "
                    f"doorbells={row['doorbells']} "
                    f"fetched={row['fetched']} "
                    f"completed={row['completed']} "
                    f"errors={row['errors']} "
                    f"in_flight={row['in_flight']}"
                )
        # Per-module guard-optimizer counters (what each module's -O level
        # removed/hoisted/coalesced at compile time).
        for name, mod in sorted(kernel.loader.loaded.items()):
            compiled = mod.compiled
            if compiled.is_protected:
                line = (
                    f"guard_opt[{name}]: O{compiled.opt_level} "
                    f"guards={compiled.guard_count} "
                    f"removed={compiled.guards_removed} "
                    f"hoisted={compiled.guards_hoisted} "
                    f"coalesced={compiled.guards_coalesced}"
                )
                if compiled.is_verified:
                    line += (
                        f" proven={compiled.guards_proven}"
                        f" dynamic={compiled.guards_dynamic}"
                        f" elided={len(mod.elided_guards)}"
                    )
                if mod.verify_state:
                    line += f" verify={mod.verify_state}"
                lines.append(line)
        lines.append(f"verify_policy: {kernel.verify_policy}")
        lines.append(f"verify_demotions: {kernel.verify_demotions}")
        lines.append(f"violation_faults: {kernel.violation_faults}")
        lines.append(f"entry_refusals: {kernel.entry_refusals}")
        for name in kernel.isolated_modules():
            lines.append(f"isolated: {name}")
        for name, reason in kernel.quarantined():
            lines.append(f"quarantined: {name} ({reason})")
        # Control-plane section: generation, staged canary, per-tenant
        # quota usage and rollback history (absent without one attached).
        cp = getattr(policy, "controlplane", None)
        if cp is not None:
            lines.append(cp.describe())
        lines.append(policy.index.describe()
                     if hasattr(policy.index, "describe")
                     else f"regions: {len(policy.index)}")
        return "\n".join(lines) + "\n"

    def _trace(self) -> str:
        return self.kernel.trace.render_trace()

    def _trace_stat(self) -> str:
        return self.kernel.trace.render_stat()

    def _journal(self) -> str:
        """Per-module transaction-journal depth and past rollbacks."""
        journal = self.kernel.journal
        lines = []
        for name in journal.modules():
            by_kind = journal.depth_by_kind(name)
            detail = " ".join(f"{k}={v}" for k, v in by_kind.items() if v)
            lines.append(f"{name}: depth={journal.depth(name)} {detail}".rstrip())
        for summary in journal.rollbacks:
            lines.append(
                f"rollback: {summary['module']} "
                f"kmalloc={summary['kmalloc_allocations']}"
                f"/{summary['kmalloc_bytes']}B "
                f"irqs={summary['irqs']} timers={summary['timers']} "
                f"symbols={summary['symbols']} chardevs={summary['chardevs']}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


__all__ = ["ProcFS"]

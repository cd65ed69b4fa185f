"""The kernel facade: boot, natives, insmod/rmmod, dmesg, panic.

This is the "core HPC kernel" the paper wants protected.  Core-kernel
services (kmalloc, printk, ioremap, memcpy, ...) are **native** Python
callables — they model compiled core-kernel code, which CARAT KOP never
instruments (only the *module* is transformed, §3.2).  Module IR executes
on the VM interpreter, and its loads/stores hit this kernel's address
space, where forbidden accesses either trip a guard (protected modules)
or silently corrupt state / fault (unprotected modules) — the contrast
the examples demonstrate.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..signing import SigningKey
from . import layout
from .chardev import DeviceRegistry, ModuleCharDevice
from .irq import IrqController
from .journal import TransactionJournal
from .kalloc import KmallocAllocator, PageAllocator
from .memory import KernelAddressSpace, MMIODevice, PhysicalMemory
from .module_loader import CompiledModule, LoadedModule, ModuleLoader
from .panic import KernelPanic, ViolationFault
from .symbols import SymbolTable

#: errno values the graceful-enforcement paths return (negated).
EACCES = 13
EFAULT = 14

#: Kernel log capacity in lines.  Like printk's fixed ``log_buf``, the
#: log is a ring: once full, each new line evicts the oldest, so a
#: long-running system's memory does not grow with its ioctl count.
DMESG_LINES = 2048

#: Physical RAM every kernel boots with.
RAM_SIZE = 64 << 20

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.interp import Interpreter
    from ..vm.machine import MachineModel


class Kernel:
    """One booted instance of the simulated machine + kernel."""

    def __init__(
        self,
        machine: Optional["MachineModel"] = None,
        signing_key: Optional[SigningKey] = None,
        require_protected_modules: bool = False,
        engine: str = "compiled",
        ncpus: int = 1,
        smp_seed: int = 0,
        verify_policy: str = "demote",
    ):
        if verify_policy not in ("strict", "demote", "off"):
            raise ValueError(
                f"verify_policy must be strict, demote, or off: "
                f"{verify_policy!r}"
            )
        self.ram = PhysicalMemory(RAM_SIZE)
        self.address_space = KernelAddressSpace(self.ram)
        self.page_allocator = PageAllocator(self.ram)
        self.kmalloc_allocator = KmallocAllocator(self.page_allocator)
        self.symbols = SymbolTable()
        self.devices = DeviceRegistry()
        self.journal = TransactionJournal()
        # SMP topology and RCU come up first: the trace subsystem sizes
        # its per-CPU rings off the topology, and the policy module's
        # region-table replicas use the RCU domain.
        from .smp import RcuDomain, SmpTopology

        self.smp = SmpTopology(ncpus, seed=smp_seed)
        self.rcu = RcuDomain(self.smp)
        # The trace subsystem comes up before the traced subsystems so
        # they can bind their tracepoints at construction time.
        from ..trace import TraceSubsystem

        self.trace = TraceSubsystem(self)
        self.irq = IrqController(self)
        self.loader = ModuleLoader(self)
        from .proc import ProcFS
        from .timers import TimerWheel

        self.proc = ProcFS(self)
        self.timers = TimerWheel(self)
        self._logical_us = 0.0
        self.signing_key = signing_key
        self.require_protected_modules = require_protected_modules
        self.machine = machine
        self.engine = engine
        self._dmesg: deque[str] = deque(maxlen=DMESG_LINES)
        self.panicked: Optional[str] = None
        # Graceful-enforcement state (eject/isolate modes).
        self._quarantine: dict[str, dict] = {}  # digest-or-name -> entry
        self._isolated: set[str] = set()
        self._pending_ejects: dict[str, str] = {}  # name -> reason
        self._eject_hooks: dict[str, dict[str, Callable]] = {}
        self.violation_faults = 0
        self.entry_refusals = 0
        # Static-verification tier (-O3) state: how insmod treats
        # certificates ("strict" rejects invalid ones, "demote" loads
        # with full dynamic guarding, "off" ignores them entirely) and
        # the policy module backref the verifier proves ranges against.
        self.verify_policy = verify_policy
        # Per-driver trusted contract sets, keyed by module name.  Each
        # guarded driver registers only its own invariants, keeping the
        # -O3 verifier's TCB per-driver (certifying one driver never
        # widens what another driver's module may claim).
        self.module_verify_contracts: dict[str, object] = {}
        self.carat_policy = None
        self.verify_demotions = 0
        #: /proc feed set by the vblk glue: per-queue device telemetry.
        self.blk_queue_stats: Optional[Callable[[], list[dict]]] = None
        self._vm: Optional["Interpreter"] = None
        self._ioremap_next = layout.VMALLOC_BASE
        #: Registered device BARs: physical base -> (size, device, name).
        self._mmio_devices: dict[int, tuple[int, MMIODevice, str]] = {}
        # Kernel stack backing for interpreter frames.
        stack_phys = self.page_allocator.alloc_pages(
            layout.KSTACK_SIZE // layout.PAGE_SIZE
        )
        self.address_space.map_linear(
            layout.KSTACK_BASE, layout.KSTACK_SIZE, stack_phys, "kstack"
        )
        self._register_core_natives()

    # -- logging / panic ---------------------------------------------------------

    def dmesg(self, message: str) -> None:
        self._dmesg.append(message)

    @property
    def dmesg_log(self) -> list[str]:
        """The retained tail of the log, oldest line first."""
        return list(self._dmesg)

    def panic(self, cause: "str | KernelPanic") -> "NoReturn":  # type: ignore[name-defined]  # noqa: F821
        """Halt the machine: the one panic path.  ``cause`` is a reason,
        or the :class:`KernelPanic` to raise (a guard's
        ``GuardViolation``), whose ``reason`` is logged and traced."""
        exc = cause if isinstance(cause, KernelPanic) else KernelPanic(cause)
        reason = exc.reason
        self.panicked = reason
        self.dmesg(f"Kernel panic - not syncing: {reason}")
        tp = self.trace.points["kernel:panic"]
        if tp.enabled:
            tp.emit(reason=reason)
        raise exc

    # -- the VM ---------------------------------------------------------------------

    @property
    def vm(self) -> "Interpreter":
        if self._vm is None:
            from ..vm import make_engine

            self._vm = make_engine(self.engine, self, machine=self.machine)
        return self._vm

    def run_function(
        self, module: LoadedModule, name: str, args: Sequence[int | float]
    ):
        """Execute an IR function defined by a loaded module.

        This is the kernel->module boundary, so it is also where graceful
        enforcement lands: entry is refused (-EACCES) for modules that are
        ejected, isolated, or awaiting a deferred eject, and a
        ``ViolationFault`` raised by a guard in eject/isolate mode is
        caught here — the offending module's frames have fully unwound by
        the time the exception reaches us, so ejection cannot pull memory
        out from under a live frame.  Entry checks no policy state: each
        policy write demotes ``-O3`` modules as it happens (the policy
        module's write hook), so a module's elisions are current here.
        """
        if (
            module.ejected
            or (self._isolated and module.name in self._isolated)
            or (self._pending_ejects and module.name in self._pending_ejects)
        ):
            self.entry_refusals += 1
            return -EACCES
        vm = self.vm
        outermost = vm._depth == 0
        try:
            result = vm.call(module, name, list(args))
        except ViolationFault as fault:
            result = self._handle_violation_fault(fault, outermost)
        if outermost and self._pending_ejects:
            for pending, reason in list(self._pending_ejects.items()):
                self.eject(pending, reason)
        return result

    def _handle_violation_fault(
        self, fault: ViolationFault, outermost: bool
    ) -> int:
        self.violation_faults += 1
        offender = fault.module_name
        entry = fault.entry_function or "?"
        self.dmesg(
            f"carat: violation fault in {offender} (entry @{entry}): "
            f"{fault.reason} -> {fault.action}"
        )
        if fault.action == "isolate":
            self.isolate(offender, fault.reason)
        elif outermost:
            self.eject(offender, fault.reason)
        else:
            # An inner kernel entry (ISR, timer, nested ioctl) caught the
            # fault while outer frames — possibly the offender's own —
            # are still live on the VM.  Unmapping now would yank memory
            # from under them; park the eject until the outermost entry
            # unwinds.  The refusal check above fences the module off in
            # the meantime.
            if offender not in self._pending_ejects:
                self._pending_ejects[offender] = fault.reason
                self.dmesg(
                    f"module {offender}: eject deferred until the call "
                    f"stack unwinds"
                )
        return -EFAULT

    # -- static verification (hybrid static+dynamic guarding) --------------------------

    def register_verify_contracts(self, contracts, *, module: str) -> None:
        """Install ``module``'s trusted contract set (its share of the
        -O3 verifier's TCB; no other module name sees it).  Certificates
        minted against a different set are demoted or rejected at
        insmod."""
        self.module_verify_contracts[module] = contracts

    def contracts_for(self, module_name: str):
        """The trusted contract set insmod verifies ``module_name``
        against (None when it registered none)."""
        return self.module_verify_contracts.get(module_name)

    def demote_module(self, loaded: LoadedModule, reason: str) -> None:
        """Drop a module's static elisions: every guard site runs
        dynamically again (translations are invalidated so compiled code
        re-emits the guard calls)."""
        if not loaded.elided_guards:
            return
        loaded.elided_guards.clear()
        loaded.verify_state = f"demoted:{reason}"
        loaded.invalidate_translations()
        self.verify_demotions += 1
        self.dmesg(
            f"module {loaded.name}: verification certificate invalidated "
            f"({reason}); demoted to full dynamic guarding"
        )

    def on_policy_mutated(self) -> int:
        """Demote every loaded module running with statically elided
        guards: it was certified against the policy a write just
        replaced.  The policy module's write hook calls it as each write
        happens, so no elided site runs under a policy its certificate
        never saw.  Returns the number of modules demoted."""
        demoted = 0
        for loaded in list(self.loader.loaded.values()):
            if loaded.elided_guards:
                self.demote_module(loaded, "policy table mutated")
                demoted += 1
        return demoted

    # -- graceful enforcement: eject / isolate / quarantine ---------------------------

    def eject(self, name: str, reason: str = "policy violation"):
        """Tear a module out of the kernel and roll back its journalled
        side effects.  Returns the rollback summary dict (or None if the
        module is already gone).  The module's signature is quarantined
        so it cannot simply be insmod'ed again."""
        self._pending_ejects.pop(name, None)
        self._isolated.discard(name)
        loaded = self.loader.loaded.get(name)
        if loaded is None:
            return None
        summary = self.loader.eject(loaded, reason)
        self.quarantine_module(loaded.compiled, reason)
        return summary

    def isolate(self, name: str, reason: str = "policy violation") -> bool:
        """Fence a module off without unloading it: future kernel entries
        are refused and its async entry points (IRQs, timers) are torn
        down, but its memory and symbols stay resident for post-mortem."""
        loaded = self.loader.loaded.get(name)
        if loaded is None:
            return False
        first = name not in self._isolated
        self._isolated.add(name)
        irqs = self.irq.release_module(loaded)
        timers = self.timers.release_module(loaded)
        if first:
            self.dmesg(
                f"module {name}: isolated ({reason}) — {irqs} irqs masked, "
                f"{timers} timers cancelled"
            )
        return True

    def isolated_modules(self) -> list[str]:
        return sorted(self._isolated)

    def register_eject_hook(
        self, module_name: str, hook: Callable, slot: str = "default"
    ) -> None:
        """Register a callable run with the LoadedModule just before its
        journal is rolled back (device quiesce, netdev unregister...).
        Re-registering the same ``slot`` replaces the hook, so re-probed
        drivers do not accumulate stale hooks across eject cycles."""
        self._eject_hooks.setdefault(module_name, {})[slot] = hook

    def eject_hooks_for(self, module_name: str) -> list[Callable]:
        return list(self._eject_hooks.get(module_name, {}).values())

    def quarantine_module(self, compiled: CompiledModule, reason: str) -> None:
        """Blocklist a module's signature (its digest if signed, else its
        name) against re-insmod."""
        sig = compiled.signature
        key = sig.digest if sig is not None else compiled.name
        if key not in self._quarantine:
            self._quarantine[key] = {"name": compiled.name, "reason": reason}
            self.dmesg(
                f"module {compiled.name}: signature quarantined ({reason})"
            )

    def quarantine_reason(self, compiled: CompiledModule) -> Optional[str]:
        sig = compiled.signature
        if sig is not None:
            entry = self._quarantine.get(sig.digest)
            if entry is not None:
                return entry["reason"]
        entry = self._quarantine.get(compiled.name)
        return entry["reason"] if entry is not None else None

    def unquarantine(self, name: str) -> bool:
        """Operator override: lift the quarantine on a module name (or
        exact digest key).  Required before a quarantined module can be
        insmod'ed again."""
        keys = [
            k for k, e in self._quarantine.items()
            if k == name or e["name"] == name
        ]
        for k in keys:
            del self._quarantine[k]
        if keys:
            self.dmesg(f"module {name}: quarantine lifted")
        return bool(keys)

    def quarantined(self) -> list[tuple[str, str]]:
        """Sorted (name, reason) pairs for introspection (/proc/carat)."""
        return sorted(
            (e["name"], e["reason"]) for e in self._quarantine.values()
        )

    # -- time ------------------------------------------------------------------------

    def time_us(self) -> float:
        """Monotonic microseconds: the VM cycle clock when a machine model
        is active, a logical counter otherwise."""
        vm = self._vm
        if vm is not None and vm.timing is not None and self.machine is not None:
            return vm.timing.cycles / self.machine.freq_hz * 1e6
        return self._logical_us

    def advance_time(self, usec: float) -> int:
        """Let simulated time pass; fires due timers.  Returns the number
        of timer handlers that ran."""
        if usec < 0:
            raise ValueError("time only moves forward")
        vm = self.vm
        if vm.timing is not None:
            vm.timing.add_delay_us(usec)
        else:
            self._logical_us += usec
        return self.timers.run_due()

    # -- module management -----------------------------------------------------------

    def insmod(self, compiled: CompiledModule) -> LoadedModule:
        return self.loader.insmod(compiled)

    def rmmod(self, name: str) -> None:
        if name in self._isolated:
            # An isolated module's code must not run again, so skip its
            # cleanup_module and take the rollback path instead.
            loaded = self.loader.loaded.get(name)
            if loaded is not None:
                self.loader.eject(loaded, "rmmod of isolated module")
            self._isolated.discard(name)
            return
        self.loader.rmmod(name)

    def lsmod(self) -> list[str]:
        return sorted(self.loader.loaded)

    def retire_symbols(self, owner: str) -> list[str]:
        """Withdraw ``owner``'s exports and unlink them from every loaded
        module, so later calls re-resolve (the §3.2 guard-swap path)."""
        removed = set(self.symbols.remove_owner(owner))
        for mod in self.loader.loaded.values():
            for name in list(mod.imports):
                if name in removed:
                    del mod.imports[name]
        return sorted(removed)

    # -- device MMIO -----------------------------------------------------------------

    def register_mmio(self, device: MMIODevice, size: int, name: str) -> int:
        """Register a device's physical BAR (above RAM, so it can never
        collide with the direct map); returns the physical base.  Drivers
        reach it through the ``ioremap`` native."""
        base = 0x1_0000_0000 + len(self._mmio_devices) * 0x10_0000
        self._mmio_devices[base] = (size, device, name)
        return base

    def ioremap(self, phys: int, size: int) -> int:
        """Map a physical MMIO window into kernel virtual space."""
        entry = self._mmio_devices.get(phys)
        virt = self._ioremap_next
        self._ioremap_next = layout.page_align_up(
            virt + max(size, layout.PAGE_SIZE)
        ) + layout.PAGE_SIZE  # guard page between windows
        if entry is not None:
            dev_size, device, name = entry
            self.address_space.map_mmio(virt, dev_size, device, f"mmio:{name}")
        else:
            # ioremap of plain RAM (uncommon but legal in our model).
            self.address_space.map_linear(virt, size, phys, f"ioremap:{phys:#x}")
        return virt

    # -- natives --------------------------------------------------------------------

    def _register_core_natives(self) -> None:
        s = self.symbols
        tp_kmalloc = self.trace.points["mem:kmalloc"]
        tp_kfree = self.trace.points["mem:kfree"]

        def n_kmalloc(ctx, size: int, flags: int = 0) -> int:
            addr = self.kmalloc_allocator.kmalloc(int(size))
            # Journal module-attributed allocations so ejection can roll
            # them back.  Core-kernel callers (ctx is None) are untracked.
            module = ctx.current_module if ctx is not None else None
            if module is not None:
                self.journal.record(
                    module.name, "kmalloc", addr, size=int(size)
                )
            if tp_kmalloc.enabled:
                tp_kmalloc.emit(
                    addr=addr,
                    size=int(size),
                    module=module.name if module is not None else "kernel",
                )
            return addr

        def n_kfree(ctx, addr: int) -> None:
            self.kmalloc_allocator.kfree(int(addr))
            self.journal.forget_key("kmalloc", int(addr))
            if tp_kfree.enabled:
                tp_kfree.emit(addr=int(addr))

        def n_printk(ctx, fmt_ptr: int, *args) -> int:
            fmt = self.address_space.read_cstring(int(fmt_ptr)).decode(
                "latin-1"
            )
            text = _format_printk(self, fmt, args)
            self.dmesg(text)
            return len(text)

        def n_panic(ctx, msg_ptr: int) -> None:
            msg = self.address_space.read_cstring(int(msg_ptr)).decode("latin-1")
            self.panic(msg)

        def n_memset(ctx, dst: int, value: int, size: int) -> int:
            self.address_space.write_bytes(
                int(dst), bytes([int(value) & 0xFF]) * int(size)
            )
            return int(dst)

        def n_memcpy(ctx, dst: int, src: int, size: int) -> int:
            data = self.address_space.read_bytes(int(src), int(size))
            self.address_space.write_bytes(int(dst), data)
            return int(dst)

        def n_ioremap(ctx, phys: int, size: int) -> int:
            return self.ioremap(int(phys), int(size))

        def n_virt_to_phys(ctx, virt: int) -> int:
            virt = int(virt)
            if virt < layout.DIRECT_MAP_BASE:
                self.panic(f"virt_to_phys of non-direct-map address {virt:#x}")
            return layout.direct_map_to_phys(virt)

        def n_phys_to_virt(ctx, phys: int) -> int:
            return layout.direct_map_address(int(phys))

        def n_udelay(ctx, usec: int) -> None:
            if ctx is not None and ctx.timing is not None:
                ctx.timing.add_delay_us(int(usec))

        def n_get_cycles(ctx) -> int:
            if ctx is not None and ctx.timing is not None:
                return ctx.timing.cc // 100
            return 0

        # Privileged intrinsics (paper §5): callable by any module unless
        # the intrinsic-guard extension is compiled in and the policy
        # denies them.  They model MSR/interrupt-flag/port operations.
        self.msr: dict[int, int] = {}
        self.interrupts_enabled = True

        def n_wrmsr(ctx, msr: int, value: int) -> None:
            self.msr[int(msr)] = int(value)
            self.dmesg(f"wrmsr({int(msr):#x}) = {int(value):#x}")

        def n_rdmsr(ctx, msr: int) -> int:
            return self.msr.get(int(msr), 0)

        def n_cli(ctx) -> None:
            self.interrupts_enabled = False

        def n_sti(ctx) -> None:
            self.interrupts_enabled = True

        def n_hlt(ctx) -> None:
            self.dmesg("hlt executed")

        s.export_native("wrmsr", n_wrmsr)
        s.export_native("rdmsr", n_rdmsr)
        s.export_native("cli", n_cli)
        s.export_native("sti", n_sti)
        s.export_native("hlt", n_hlt)
        s.export_native("kmalloc", n_kmalloc)
        s.export_native("kfree", n_kfree)
        s.export_native("printk", n_printk)
        s.export_native("panic", n_panic)
        s.export_native("memset", n_memset)
        s.export_native("memcpy", n_memcpy)
        s.export_native("ioremap", n_ioremap)
        s.export_native("virt_to_phys", n_virt_to_phys)
        s.export_native("phys_to_virt", n_phys_to_virt)
        s.export_native("udelay", n_udelay)
        s.export_native("get_cycles", n_get_cycles)

        # netif_rx: the core network stack's receive entry point.  The
        # active net device layer plugs in a handler; without one, frames
        # are counted and dropped (no stack listening).
        self.netif_rx_handler: Optional[Callable] = None
        self.netif_rx_dropped = 0

        def n_netif_rx(ctx, data: int, length: int) -> None:
            if self.netif_rx_handler is not None:
                self.netif_rx_handler(ctx, int(data), int(length))
            else:
                self.netif_rx_dropped += 1

        s.export_native("netif_rx", n_netif_rx)

        def n_request_irq(ctx, line: int, handler_name_ptr: int) -> int:
            """request_irq(line, "handler") from module code."""
            if ctx is None or ctx.current_module is None:
                return -1
            handler = self.address_space.read_cstring(
                int(handler_name_ptr)
            ).decode()
            from .irq import IrqError

            try:
                self.irq.request_irq(int(line), ctx.current_module, handler)
                return 0
            except IrqError as e:
                self.dmesg(f"request_irq failed: {e}")
                return -1

        def n_free_irq(ctx, line: int) -> None:
            if ctx is not None and ctx.current_module is not None:
                from .irq import IrqError

                try:
                    self.irq.free_irq(int(line), ctx.current_module)
                except IrqError as e:
                    self.dmesg(f"free_irq failed: {e}")

        s.export_native("request_irq", n_request_irq)
        s.export_native("free_irq", n_free_irq)

        def n_mod_timer(ctx, handler_ptr: int, delay_us: int, arg: int = 0) -> int:
            if ctx is None or ctx.current_module is None:
                return -1
            name = self.address_space.read_cstring(int(handler_ptr)).decode()
            try:
                return self.timers.mod_timer(
                    ctx.current_module, name, float(delay_us), int(arg)
                )
            except ValueError as e:
                self.dmesg(f"mod_timer failed: {e}")
                return -1

        def n_del_timer(ctx, timer_id: int) -> int:
            return int(self.timers.del_timer(int(timer_id)))

        def n_time_us(ctx) -> int:
            return int(self.time_us())

        s.export_native("mod_timer", n_mod_timer)
        s.export_native("del_timer", n_del_timer)
        s.export_native("time_us", n_time_us)

        def n_register_chrdev(ctx, path_ptr: int, handler_ptr: int) -> int:
            """register_chrdev("/dev/x", "ioctl_handler") from module code.
            The handler runs on the VM for every ioctl on the device; the
            registration is journalled, so ejection unregisters it."""
            if ctx is None or ctx.current_module is None:
                return -1
            module = ctx.current_module
            path = self.address_space.read_cstring(int(path_ptr)).decode()
            handler = self.address_space.read_cstring(int(handler_ptr)).decode()
            fn = module.ir.functions.get(handler)
            if fn is None or fn.is_declaration or len(fn.args) != 3:
                self.dmesg(
                    f"register_chrdev: {module.name} has no 3-arg @{handler}"
                )
                return -1
            try:
                self.devices.register(
                    path,
                    ModuleCharDevice(self, module, handler),
                    owner=module.name,
                )
            except ValueError as e:
                self.dmesg(f"register_chrdev failed: {e}")
                return -1
            self.journal.record(module.name, "chardev", path)
            self.dmesg(f"chardev {path}: registered by {module.name}")
            return 0

        def n_unregister_chrdev(ctx, path_ptr: int) -> int:
            if ctx is None or ctx.current_module is None:
                return -1
            path = self.address_space.read_cstring(int(path_ptr)).decode()
            if self.devices.owner_of(path) != ctx.current_module.name:
                return -1
            self.devices.unregister(path)
            self.journal.forget(ctx.current_module.name, "chardev", path)
            return 0

        s.export_native("register_chrdev", n_register_chrdev)
        s.export_native("unregister_chrdev", n_unregister_chrdev)

    def export_native(self, name: str, fn: Callable, owner: str = "kernel",
                      private: bool = False) -> None:
        """Register an additional native (device glue, policy hooks...)."""
        self.symbols.export_native(name, fn, owner=owner, private=private)


def _format_printk(kernel: Kernel, fmt: str, args: tuple) -> str:
    """A printf subset: %d %u %x %lx %llx %s %c %p %%."""
    out: list[str] = []
    i = 0
    argi = 0

    def next_arg():
        nonlocal argi
        if argi >= len(args):
            return 0
        v = args[argi]
        argi += 1
        return v

    while i < len(fmt):
        c = fmt[i]
        if c != "%":
            out.append(c)
            i += 1
            continue
        i += 1
        # length modifiers
        while i < len(fmt) and fmt[i] in "l0123456789.":
            i += 1
        if i >= len(fmt):
            break
        spec = fmt[i]
        i += 1
        if spec == "%":
            out.append("%")
        elif spec in ("d", "i"):
            v = int(next_arg())
            if v >= 1 << 63:
                v -= 1 << 64
            out.append(str(v))
        elif spec == "u":
            out.append(str(int(next_arg())))
        elif spec in ("x", "X"):
            text = format(int(next_arg()), "x")
            out.append(text.upper() if spec == "X" else text)
        elif spec == "p":
            out.append(f"{int(next_arg()):#018x}")
        elif spec == "c":
            out.append(chr(int(next_arg()) & 0xFF))
        elif spec == "s":
            out.append(
                kernel.address_space.read_cstring(int(next_arg())).decode("latin-1")
            )
        else:
            out.append(f"%{spec}")
    return "".join(out)


__all__ = ["Kernel"]

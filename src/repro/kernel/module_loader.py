"""Module loading: insmod/rmmod with validation and linking.

The insertion path follows paper §3.2: *validate the signature*, then
*link against the policy module's carat_guard*, then run the module's
init.  The loader also implements the kernel-enforcement knob: when the
kernel is configured with ``require_protected_modules``, an unguarded or
unattested module is refused — the operator's deployment story from §1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .. import abi
from ..ir import Function, Module, verify_module
from ..ir.values import ConstantFloat, ConstantInt, ConstantNull, ConstantString
from ..signing import (
    CertificateError,
    ModuleSignature,
    SignatureError,
    SigningKey,
    VerificationCertificate,
    canonical_bytes,
    verify_signature,
)
from . import layout
from .panic import KernelPanic
from .symbols import Symbol, SymbolTable

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


#: Entry points the loader calls through the module itself: as in Linux,
#: every module defines its own, so they never enter the symbol table.
LIFECYCLE_HOOKS = frozenset(("init_module", "cleanup_module"))


class LoadError(ValueError):
    """insmod refused the module (bad signature, policy, or linkage)."""


@dataclass
class CompiledModule:
    """What the compiler hands the operator: IR plus its signature.

    ``source_lines`` records the size of the original C source, used by the
    engineering-effort ablation (paper §4.1 reports the driver's ~19k LoC).
    """

    ir: Module
    signature: Optional[ModuleSignature] = None
    source_lines: int = 0
    #: Compiler statistics (:class:`repro.core.pipeline.CompileStats`).
    stats: Optional[object] = None
    #: -O3 static-verification certificate
    #: (:class:`repro.signing.VerificationCertificate`); validated and
    #: its proof checked by insmod before any guard may be elided.
    certificate: Optional[VerificationCertificate] = None

    @property
    def name(self) -> str:
        return self.ir.name

    @property
    def is_protected(self) -> bool:
        return bool(self.ir.metadata.get(abi.META_GUARDED, False))

    @property
    def guard_count(self) -> int:
        return int(self.ir.metadata.get(abi.META_GUARD_COUNT, 0))  # type: ignore[arg-type]

    @property
    def opt_level(self) -> int:
        return int(self.ir.metadata.get(abi.META_OPT_LEVEL, 0))  # type: ignore[arg-type]

    @property
    def guards_removed(self) -> int:
        return int(self.ir.metadata.get(abi.META_GUARDS_REMOVED, 0))  # type: ignore[arg-type]

    @property
    def guards_hoisted(self) -> int:
        return int(self.ir.metadata.get(abi.META_GUARDS_HOISTED, 0))  # type: ignore[arg-type]

    @property
    def guards_coalesced(self) -> int:
        return int(self.ir.metadata.get(abi.META_GUARDS_COALESCED, 0))  # type: ignore[arg-type]

    @property
    def guards_proven(self) -> int:
        return int(self.ir.metadata.get(abi.META_GUARDS_PROVEN, 0))  # type: ignore[arg-type]

    @property
    def guards_dynamic(self) -> int:
        return int(self.ir.metadata.get(abi.META_GUARDS_DYNAMIC, 0))  # type: ignore[arg-type]

    @property
    def is_verified(self) -> bool:
        return self.certificate is not None


@dataclass
class LoadedModule:
    """A module resident in the kernel."""

    compiled: CompiledModule
    base: int
    size: int
    global_addresses: dict[str, int] = field(default_factory=dict)
    imports: dict[str, Symbol] = field(default_factory=dict)
    #: Names of modules whose exported data this module references.
    data_imports: list[str] = field(default_factory=list)
    refcount: int = 0
    #: Physical base of the module-area mapping (so eject can return the
    #: pages; rmmod keeps the historical leak-until-reuse behaviour).
    phys: int = 0
    #: Set by :meth:`ModuleLoader.eject`; a stale handle to an ejected
    #: module must never execute again (its memory is unmapped).
    ejected: bool = False
    #: Per-engine translation caches: each execution engine stores its
    #: translated functions here, keyed by the engine instance itself
    #: (see :class:`repro.vm.compiled.CompiledEngine`).  Entries are
    #: additionally keyed on ``ir.generation``, so IR rewrites invalidate
    #: them; :meth:`invalidate_translations` forces the same.
    translations: dict = field(default_factory=dict, repr=False, compare=False)
    #: ``id()`` of every guard Call instruction the validated certificate
    #: proves in-policy; the execution engines skip (interpreter) or
    #: never emit (compiled) these sites.  Empty = full dynamic guarding.
    elided_guards: set = field(default_factory=set, repr=False, compare=False)
    #: "verified" | "demoted:<reason>" | "" (never certified).
    verify_state: str = ""

    @property
    def name(self) -> str:
        return self.compiled.name

    @property
    def ir(self) -> Module:
        return self.compiled.ir

    def address_of(self, global_name: str) -> int:
        return self.global_addresses[global_name]

    def function(self, name: str) -> Function:
        fn = self.ir.functions.get(name)
        if fn is None or fn.is_declaration:
            raise KeyError(f"module {self.name} does not define @{name}")
        return fn

    def guard_opt_summary(self) -> str:
        """What the module's ``-O`` level did to its guards at compile
        time (with the ``-O3`` proof counts and the verify state), as
        ``/proc/carat`` and ``/proc/trace_stat`` both show it."""
        c = self.compiled
        line = (
            f"O{c.opt_level} guards={c.guard_count} "
            f"removed={c.guards_removed} hoisted={c.guards_hoisted} "
            f"coalesced={c.guards_coalesced}"
        )
        if c.is_verified:
            line += (
                f" proven={c.guards_proven} dynamic={c.guards_dynamic}"
                f" elided={len(self.elided_guards)}"
            )
        if self.verify_state:
            line += f" verify={self.verify_state}"
        return line

    def invalidate_translations(self) -> None:
        """Drop every engine's cached translation of this module's code.

        Call after mutating the loaded IR in place (tests and tooling do
        this; the compiler pipeline bumps the generation itself)."""
        self.ir.bump_generation()
        self.translations.clear()


class ModuleLoader:
    """The kernel's insmod/rmmod implementation."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.loaded: dict[str, LoadedModule] = {}
        self._module_area_next = layout.MODULE_AREA_BASE
        points = kernel.trace.points
        self._tp_verify = points["module:verify"]
        self._tp_link = points["module:link"]
        self._tp_load = points["module:load"]
        self._tp_eject = points["module:eject"]

    # -- insmod ------------------------------------------------------------------

    def insmod(self, compiled: CompiledModule) -> LoadedModule:
        kernel = self.kernel
        name = compiled.name
        if name in self.loaded:
            raise LoadError(f"module {name!r} is already loaded")

        ir_digest = self._validate(compiled)
        verify_module(compiled.ir)

        loaded = self._map_and_link(compiled)
        try:
            self._apply_verification(compiled, loaded, ir_digest)
        except LoadError:
            self._unwind_mapping(loaded)
            raise
        self.loaded[name] = loaded
        tp = self._tp_load
        if tp.enabled:
            tp.emit(
                module=name,
                base=loaded.base,
                size=loaded.size,
                protected=compiled.is_protected,
                guards=compiled.guard_count,
            )
        opt = f", -O{compiled.opt_level}" if compiled.is_protected else ""
        if loaded.verify_state == "verified":
            opt += (f", {len(loaded.elided_guards)} proven static / "
                    f"{compiled.guards_dynamic} dynamic")
        elif loaded.verify_state:
            opt += f", {loaded.verify_state}"
        kernel.dmesg(f"module {name}: loaded at {loaded.base:#x} "
                     f"({'protected' if compiled.is_protected else 'unprotected'}, "
                     f"{compiled.guard_count} guards{opt})")

        init = compiled.ir.functions.get("init_module")
        if init is not None and not init.is_declaration:
            rc = kernel.run_function(loaded, "init_module", [])
            if rc not in (0, None):
                self._unload(loaded)
                raise LoadError(f"module {name}: init_module returned {rc}")
        return loaded

    def _validate(self, compiled: CompiledModule) -> Optional[str]:
        """Refuse a quarantined, unsigned or badly signed module; returns
        the IR digest the signature check just verified, or None when
        no signing key is set."""
        kernel = self.kernel
        ir_digest = None
        quarantine_reason = kernel.quarantine_reason(compiled)
        if quarantine_reason is not None:
            raise LoadError(
                f"module {compiled.name}: quarantined ({quarantine_reason}); "
                "refusing insmod"
            )
        tp = self._tp_verify
        if kernel.signing_key is not None:
            if compiled.signature is None:
                if tp.enabled:
                    tp.emit(module=compiled.name, signed=False, verified=False)
                raise LoadError(
                    f"module {compiled.name}: unsigned module rejected"
                )
            try:
                verify_signature(compiled.ir, compiled.signature, kernel.signing_key)
            except SignatureError as e:
                if tp.enabled:
                    tp.emit(module=compiled.name, signed=True, verified=False)
                raise LoadError(str(e)) from e
            ir_digest = compiled.signature.digest
            if tp.enabled:
                tp.emit(module=compiled.name, signed=True, verified=True)
        elif tp.enabled:
            tp.emit(
                module=compiled.name,
                signed=compiled.signature is not None,
                verified=False,
            )
        if kernel.require_protected_modules:
            if not compiled.is_protected:
                raise LoadError(
                    f"module {compiled.name}: kernel requires CARAT KOP "
                    "protected modules"
                )
            if compiled.signature is not None and compiled.signature.has_inline_asm:
                raise LoadError(
                    f"module {compiled.name}: inline assembly attested; "
                    "cannot be protected"
                )
            if bool(compiled.ir.metadata.get(abi.META_HAS_ASM, False)):
                raise LoadError(
                    f"module {compiled.name}: contains inline assembly"
                )
        return ir_digest

    def _apply_verification(
        self, compiled: CompiledModule, loaded: LoadedModule,
        ir_digest: Optional[str],
    ) -> None:
        """Validate a -O3 certificate and arm the guard elisions.

        The kernel never trusts the shipped verdicts.  After checking the
        IR digest (``ir_digest`` when the signature check already hashed
        the IR, else a fresh print), policy digest/epoch and contract
        digest, it checks the certificate's proof rather than redoing
        it: one round of the analysis from the claimed summaries must
        change none of them (:meth:`ModuleVerifier.checking`), and the
        verdicts that round yields must equal the shipped ones bit for
        bit.  Any failure rejects the module under
        ``verify_policy="strict"`` or loads it with full dynamic
        guarding under ``"demote"``; ``"off"`` ignores certificates.
        """
        kernel = self.kernel
        cert = compiled.certificate
        if cert is None or kernel.verify_policy == "off":
            return

        def invalid(reason: str) -> None:
            if kernel.verify_policy == "strict":
                raise LoadError(
                    f"module {compiled.name}: verification certificate "
                    f"rejected ({reason})"
                )
            kernel.verify_demotions += 1
            loaded.verify_state = f"demoted:{reason}"
            kernel.dmesg(
                f"module {compiled.name}: certificate invalid ({reason}); "
                "loading with full dynamic guarding"
            )

        from ..passes.absint import (
            EMPTY_CONTRACTS,
            ModuleVerifier,
            elidable_guard_ids,
        )

        if ir_digest is None:
            ir_digest = hashlib.sha256(canonical_bytes(compiled.ir)).hexdigest()
        if ir_digest != cert.ir_digest:
            return invalid("IR digest mismatch")
        policy = kernel.carat_policy
        if policy is None:
            return invalid("no policy module installed")
        if compiled.name in policy.module_indexes:
            return invalid("module is bound to a per-module policy table")
        table = policy.index
        if table.digest() != cert.policy_digest:
            return invalid("policy table changed since certification")
        if table.epoch != cert.policy_epoch:
            return invalid("stale policy epoch")
        cp = policy.controlplane
        if cp._staged is not None:
            # Canary CPUs read a generation this certificate never saw,
            # and the write that ends the canary demotes every -O3
            # module anyway.
            return invalid("a canary generation is staged")
        if any(len(t.table) for t in cp.tenants.values()):
            # The guard enforces the tenant-composed policy, but the
            # certificate only proves the system namespace: a tenant
            # region (first-match priority) could deny what the master
            # table allows, so elision would be unsound.
            return invalid(
                "policy is tenant-composed; certificate proves the "
                "system namespace only"
            )
        contracts = kernel.contracts_for(compiled.name)
        if (contracts or EMPTY_CONTRACTS).digest() != cert.contracts_digest:
            return invalid("contract set mismatch")
        try:
            report = ModuleVerifier.checking(
                compiled.ir, table, contracts, cert
            ).run()
        except CertificateError as e:
            return invalid(str(e))
        if report.verdicts != cert.verdicts:
            return invalid("verdicts do not reproduce from the summaries")
        loaded.elided_guards = elidable_guard_ids(
            compiled.ir, report.proven_map()
        )
        loaded.verify_state = "verified"

    def _unwind_mapping(self, loaded: LoadedModule) -> None:
        """Back out a mapped-and-linked module that insmod then refused
        (e.g. a strict-mode certificate rejection): withdraw its exports
        and references, unmap, and return its pages."""
        kernel = self.kernel
        kernel.symbols.remove_owner(loaded.name)
        self._drop_references(loaded)
        kernel.address_space.unmap(loaded.base)
        kernel.page_allocator.free_pages(
            loaded.phys, loaded.size // layout.PAGE_SIZE
        )
        kernel.journal.drop(loaded.name)

    def _map_and_link(self, compiled: CompiledModule) -> LoadedModule:
        """Map, initialize, and link; unwinds the mapping on any failure
        so a rejected module leaves no trace in the address space."""
        kernel = self.kernel
        state: dict = {}
        try:
            return self._map_and_link_inner(compiled, state)
        except Exception:
            base = state.get("base")
            if base is not None:
                kernel.address_space.unmap(base)
                kernel.page_allocator.free_pages(
                    state["phys"], state["size"] // layout.PAGE_SIZE
                )
            raise

    def _map_and_link_inner(
        self, compiled: CompiledModule, state: dict
    ) -> LoadedModule:
        kernel = self.kernel
        ir = compiled.ir

        # Lay out globals in the module area.
        offsets: dict[str, int] = {}
        cursor = 0
        for g in ir.globals.values():
            if g.linkage == "external":
                continue  # imported data; resolved below
            align = g.value_type.align_bytes()
            cursor = (cursor + align - 1) & ~(align - 1)
            offsets[g.name] = cursor
            cursor += g.value_type.size_bytes()
        size = layout.page_align_up(max(cursor, 1))

        base = self._module_area_next
        if base + size > layout.MODULE_AREA_BASE + layout.MODULE_AREA_SIZE:
            raise KernelPanic("module area exhausted")
        self._module_area_next = base + size
        phys = kernel.page_allocator.alloc_pages(size // layout.PAGE_SIZE)
        kernel.address_space.map_linear(
            base, size, phys_base=phys, name=f"module:{compiled.name}"
        )
        state.update(base=base, phys=phys, size=size)

        loaded = LoadedModule(compiled=compiled, base=base, size=size, phys=phys)
        for gname, off in offsets.items():
            addr = base + off
            loaded.global_addresses[gname] = addr
            self._write_initializer(addr, ir.globals[gname])

        # Resolve imported data symbols against other modules' exports
        # (EXPORT_SYMBOL on data), taking a reference on the exporter.
        for g in ir.globals.values():
            if g.linkage != "external":
                continue
            target = None
            for other in self.loaded.values():
                exported = other.ir.globals.get(g.name)
                if exported is not None and exported.linkage == "exported":
                    target = other.global_addresses[g.name]
                    other.refcount += 1
                    loaded.data_imports.append(other.name)
                    break
            if target is None:
                raise LoadError(
                    f"module {compiled.name}: unresolved data symbol "
                    f"@{g.name}"
                )
            loaded.global_addresses[g.name] = target

        # Resolve imported functions through the kernel symbol table
        # (this is where carat_guard binds to the policy module, §3.2).
        tp_link = self._tp_link
        for decl in ir.declarations():
            sym = kernel.symbols.lookup(decl.name)
            if sym is None:
                raise LoadError(
                    f"module {compiled.name}: unresolved symbol {decl.name!r}"
                )
            loaded.imports[decl.name] = sym
            if tp_link.enabled:
                tp_link.emit(
                    module=compiled.name, symbol=decl.name, owner=sym.owner
                )
            if sym.owner != "kernel":
                owner = self.loaded.get(sym.owner)
                if owner is not None:
                    owner.refcount += 1

        # Register this module's exports.
        for fn in ir.functions.values():
            if (fn.linkage == "exported" and not fn.is_declaration
                    and fn.name not in LIFECYCLE_HOOKS):
                kernel.symbols.export_function(fn.name, fn, owner=compiled.name)
                kernel.journal.record(compiled.name, "symbol", fn.name)
        return loaded

    def _write_initializer(self, addr: int, g) -> None:
        mem = self.kernel.address_space
        init = g.initializer
        size = g.value_type.size_bytes()
        if init is None or isinstance(init, ConstantNull):
            mem.write_bytes(addr, b"\x00" * size)
        elif isinstance(init, ConstantString):
            data = init.data.ljust(size, b"\x00")
            mem.write_bytes(addr, data[:size])
        elif isinstance(init, ConstantInt):
            mem.write_int(addr, size, init.value)
        elif isinstance(init, ConstantFloat):
            if size == 4:
                mem.write_f32(addr, init.value)
            else:
                mem.write_f64(addr, init.value)
        else:
            raise LoadError(f"unsupported initializer for @{g.name}")

    # -- rmmod ------------------------------------------------------------------

    def rmmod(self, name: str) -> None:
        loaded = self.loaded.get(name)
        if loaded is None:
            raise LoadError(f"module {name!r} is not loaded")
        if loaded.refcount > 0:
            raise LoadError(
                f"module {name!r} is in use (refcount {loaded.refcount})"
            )
        cleanup = loaded.ir.functions.get("cleanup_module")
        if cleanup is not None and not cleanup.is_declaration:
            self.kernel.run_function(loaded, "cleanup_module", [])
        self._unload(loaded)
        self.kernel.dmesg(f"module {name}: unloaded")

    def _unload(self, loaded: LoadedModule) -> None:
        if self.loaded.get(loaded.name) is not loaded:
            return  # already gone (e.g. ejected during its own init)
        kernel = self.kernel
        kernel.irq.release_module(loaded)
        kernel.timers.release_module(loaded)
        kernel.symbols.remove_owner(loaded.name)
        self._drop_references(loaded)
        kernel.address_space.unmap(loaded.base)
        # Physical pages intentionally leak back only via the page allocator
        # free list when the mapping's phys base is tracked; modules are
        # small and reload cycles in tests are bounded.
        kernel.journal.drop(loaded.name)
        self.loaded.pop(loaded.name, None)

    def _drop_references(self, loaded: LoadedModule) -> None:
        for sym in loaded.imports.values():
            if sym.owner != "kernel":
                owner = self.loaded.get(sym.owner)
                if owner is not None:
                    owner.refcount -= 1
        for owner_name in loaded.data_imports:
            owner = self.loaded.get(owner_name)
            if owner is not None:
                owner.refcount -= 1

    # -- eject (graceful enforcement) ---------------------------------------

    def eject(self, loaded: LoadedModule, reason: str) -> dict:
        """Forcibly remove a misbehaving module and roll back its state.

        Unlike rmmod this never runs ``cleanup_module`` (the module just
        violated policy; its code is not trusted to run again) and it
        ignores the refcount — importers are unlinked so later calls
        re-resolve or fail cleanly.  The transaction journal undoes the
        module's side effects (kmalloc, IRQs, timers, exports, chardevs)
        in reverse order; the module's pages are unmapped and returned.
        Returns the rollback summary.
        """
        kernel = self.kernel
        name = loaded.name
        if self.loaded.get(name) is not loaded:
            return {"module": name, "already_unloaded": True}
        kernel.dmesg(f"module {name}: ejecting ({reason})")
        tp = self._tp_eject
        if tp.enabled:
            tp.emit(module=name, reason=reason)
        for hook in kernel.eject_hooks_for(name):
            hook(loaded)
        summary = kernel.journal.rollback(name, kernel)
        # Belt and braces: anything registered outside the journal's view.
        summary["irqs"] += kernel.irq.release_module(loaded)
        summary["timers"] += kernel.timers.release_module(loaded)
        for path in kernel.devices.owned_by(name):
            kernel.devices.unregister(path)
            summary["chardevs"] += 1
        kernel.retire_symbols(name)
        self._drop_references(loaded)
        kernel.address_space.unmap(loaded.base)
        kernel.page_allocator.free_pages(
            loaded.phys, loaded.size // layout.PAGE_SIZE
        )
        self.loaded.pop(name, None)
        loaded.ejected = True
        loaded.translations.clear()
        kernel.dmesg(
            f"module {name}: ejected — rolled back "
            f"{summary['kmalloc_allocations']} allocations "
            f"({summary['kmalloc_bytes']} bytes), {summary['irqs']} irqs, "
            f"{summary['timers']} timers, {summary['symbols']} symbols, "
            f"{summary['chardevs']} chardevs"
        )
        return summary

__all__ = ["CompiledModule", "LoadError", "LoadedModule", "ModuleLoader"]

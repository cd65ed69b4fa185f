"""caratcc: the CARAT KOP compiler pipeline (paper §3.3, Figure 2).

Figure 2's flow — C source → clang front end → middle-end passes
(+ guard injection) → signed module object — maps here to::

    mini-C  →  minicc  →  [mem2reg, peephole, dce]      (normal -O pipeline)
                       →  [attestation, kop-guard]       (if protect=True)
                       →  [kop-guard-opt]                (opt_level >= 1)
                       →  sign                           (HMAC attestation)

"Any module in the Linux kernel can be compiled as a protected module by
swapping the compiler for the CARAT KOP compiler" (§3.2): the same entry
point builds the baseline by passing ``protect=False`` — same front end,
same optimization flags, no guards, exactly the paper's §4.1 methodology
("In both cases, the same compiler was used, with the same flags").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Union

from .. import abi
from ..ir import Module, verify_module
from ..ir.instructions import Call, Load, Store
from ..kernel.module_loader import CompiledModule
from ..minicc import compile_source
from ..passes import (
    AttestationPass,
    DCEPass,
    GuardInjectionPass,
    GuardOptPass,
    Mem2RegPass,
    PassManager,
    PeepholePass,
)
from ..passes.absint import ModuleVerifier
from ..passes.intrinsic_guard import IntrinsicGuardPass
from ..signing import (
    SigningKey,
    VerificationCertificate,
    canonical_bytes,
    sign_module,
)


@dataclass
class CompileOptions:
    """Knobs of the caratcc wrapper script."""

    module_name: str = "module"
    #: Apply the CARAT KOP guard-injection transform.
    protect: bool = True
    #: Guard optimization level: 0 = faithful paper mode (guard every
    #: access), 1 = dominated-guard elimination + loop-invariant hoisting
    #: (the CARAT CAKE-style optimizer, OFF in the paper), 2 = adds range
    #: coalescing, 3 = adds load-time static verification (prove guards
    #: in-policy and mint an elision certificate).
    opt_level: int = 0
    #: Individual transform overrides; ``None`` follows ``opt_level``.
    eliminate_guards: Optional[bool] = None
    hoist_guards: Optional[bool] = None
    coalesce_guards: Optional[bool] = None
    #: Run the abstract-interpretation verifier (``None`` follows
    #: ``opt_level >= 3``).  Requires ``verify_table``; without a table
    #: the tier degrades to -O2 behaviour (no certificate minted).
    verify: Optional[bool] = None
    #: The policy table (RegionTable/IntervalRegionTable) to prove guard
    #: ranges against — normally the live table the kernel will enforce.
    verify_table: Optional[object] = None
    #: Trusted contract set (``repro.passes.absint.ContractSet``); must
    #: match the kernel's registered contracts or insmod will demote.
    contracts: Optional[object] = None
    #: Guard privileged intrinsics too (paper §5 extension).
    guard_intrinsics: bool = False
    #: Guard module->kernel calls too (paper §5 control-flow extension).
    guard_calls: bool = False
    #: Standard mid-end optimization (mem2reg/peephole/dce).  The paper
    #: compiles with the kernel's normal flags; disable only for tests
    #: that want the -O0 shape.
    optimize: bool = True
    #: Sign the result (required by kernels provisioned with a key).
    key: Optional[SigningKey] = None
    verify_each_pass: bool = True

    def __post_init__(self) -> None:
        if self.opt_level not in (0, 1, 2, 3):
            raise ValueError(
                f"opt_level must be 0, 1, 2, or 3: {self.opt_level}"
            )

    def verify_enabled(self) -> bool:
        """Static verification tier (``-O3``) after overrides."""
        if self.verify is not None:
            return self.verify
        return self.opt_level >= 3

    def guard_opt_toggles(self) -> tuple[bool, bool, bool]:
        """``(eliminate, hoist, coalesce)`` after per-transform overrides."""
        level = self.opt_level
        eliminate = (
            self.eliminate_guards if self.eliminate_guards is not None
            else level >= 1
        )
        hoist = (
            self.hoist_guards if self.hoist_guards is not None else level >= 1
        )
        coalesce = (
            self.coalesce_guards if self.coalesce_guards is not None
            else level >= 2
        )
        return eliminate, hoist, coalesce


@dataclass
class CompileStats:
    """What the transform did — feeds the abl3 engineering-effort bench."""

    source_lines: int = 0
    instructions_before_guards: int = 0
    instructions_after: int = 0
    loads: int = 0
    stores: int = 0
    guards: int = 0
    functions: int = 0
    opt_level: int = 0
    guards_removed: int = 0
    guards_hoisted: int = 0
    guards_coalesced: int = 0
    guards_proven: int = 0
    guards_dynamic: int = 0
    passes_run: list[str] = field(default_factory=list)

    @property
    def code_growth(self) -> float:
        """Instruction-count growth factor from guard injection."""
        if not self.instructions_before_guards:
            return 1.0
        return self.instructions_after / self.instructions_before_guards


def compile_module(
    source: Union[str, Module],
    options: Optional[CompileOptions] = None,
    **kwargs,
) -> CompiledModule:
    """Compile mini-C source (or transform existing IR) into a loadable,
    optionally protected, optionally signed module."""
    opts = options or CompileOptions(**kwargs)
    if options is not None and kwargs:
        raise TypeError("pass either options or keyword overrides, not both")

    stats = CompileStats()
    if isinstance(source, str):
        stats.source_lines = sum(
            1 for line in source.splitlines() if line.strip()
        )
        ir = compile_source(source, opts.module_name)
    else:
        ir = source
        if opts.module_name != "module":
            ir.name = opts.module_name
    verify_module(ir)

    pm = PassManager(verify_each=opts.verify_each_pass)
    if opts.optimize:
        pm.add(Mem2RegPass()).add(PeepholePass()).add(DCEPass())
    pm.run(ir)
    stats.instructions_before_guards = ir.instruction_count()

    eliminate, hoist, coalesce = opts.guard_opt_toggles()
    guard_opt: Optional[GuardOptPass] = None
    pm2 = PassManager(verify_each=opts.verify_each_pass)
    pm2.add(AttestationPass())
    if opts.protect:
        pm2.add(GuardInjectionPass())
        if opts.guard_intrinsics:
            pm2.add(IntrinsicGuardPass())
        if opts.guard_calls:
            from ..passes.call_guard import CallGuardPass

            pm2.add(CallGuardPass())
        if eliminate or hoist or coalesce:
            guard_opt = GuardOptPass(
                hoist_loops=hoist, eliminate=eliminate, coalesce=coalesce
            )
            pm2.add(guard_opt)
            pm2.add(DCEPass())  # sweep dead address casts left behind
    pm2.run(ir)

    stats.passes_run = [name for name, _ in pm.log + pm2.log]
    stats.instructions_after = ir.instruction_count()
    stats.functions = len(ir.defined_functions())
    for fn in ir.defined_functions():
        for inst in fn.instructions():
            if isinstance(inst, Load):
                stats.loads += 1
            elif isinstance(inst, Store):
                stats.stores += 1
            elif isinstance(inst, Call) and inst.is_guard:
                stats.guards += 1
    stats.opt_level = opts.opt_level
    if guard_opt is not None:
        stats.guards_removed = guard_opt.guards_removed
        stats.guards_hoisted = guard_opt.guards_hoisted
        stats.guards_coalesced = guard_opt.guards_coalesced

    # -O3: prove guard ranges against the live policy table.  The
    # verdicts are computed on the final IR (after guard opt), so the
    # signature below attests to exactly the code the verdicts describe.
    report = None
    if opts.protect and opts.verify_enabled() and opts.verify_table is not None:
        verifier = ModuleVerifier(ir, opts.verify_table, opts.contracts)
        report = verifier.run()
        stats.guards_proven = report.guards_proven
        stats.guards_dynamic = report.guards_dynamic
        stats.passes_run.append("kop-absint")

    if opts.protect:
        ir.metadata[abi.META_GUARD_COUNT] = stats.guards
        ir.metadata[abi.META_OPT_LEVEL] = stats.opt_level
        ir.metadata[abi.META_GUARDS_REMOVED] = stats.guards_removed
        ir.metadata[abi.META_GUARDS_HOISTED] = stats.guards_hoisted
        ir.metadata[abi.META_GUARDS_COALESCED] = stats.guards_coalesced
        if report is not None:
            ir.metadata[abi.META_GUARDS_PROVEN] = stats.guards_proven
            ir.metadata[abi.META_GUARDS_DYNAMIC] = stats.guards_dynamic

    signature = sign_module(ir, opts.key) if opts.key is not None else None
    certificate = None
    if report is not None:
        table = opts.verify_table
        certificate = VerificationCertificate(
            module_name=ir.name,
            ir_digest=hashlib.sha256(canonical_bytes(ir)).hexdigest(),
            policy_digest=table.digest(),
            policy_epoch=table.epoch,
            contracts_digest=report.contracts_digest,
            verdicts=report.verdicts,
            guards_proven=report.guards_proven,
            guards_dynamic=report.guards_dynamic,
        )
    compiled = CompiledModule(
        ir=ir,
        signature=signature,
        source_lines=stats.source_lines,
        certificate=certificate,
    )
    compiled.stats = stats  # type: ignore[attr-defined]
    return compiled


__all__ = ["CompileOptions", "CompileStats", "compile_module"]

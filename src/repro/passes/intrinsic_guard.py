"""The paper §5 name guards: privileged intrinsics and kernel calls.

Privileged intrinsics:

    "Instrumentation and wrappers to these builtins could be added during
     compilation, such that a guard is injected and a different policy
     table could be consulted to determine if a given kernel module has
     access to a privileged intrinsic."

Kernel calls (the control-flow concern):

    "CARAT KOP also does not prevent control-flow attacks, where a module
     might call an arbitrary function in the kernel to perform a
     potentially malicious task."

One pass class serves both.  Each instance precedes every call site its
predicate selects with a call to its guard, passing the callee's name::

    call void @carat_intrinsic_guard(i8* <intrinsic name>)
    call void @carat_call_guard(i8* <symbol name>)

The intrinsic guard wraps the known privileged intrinsics; the policy
module checks them against a separate allow-set (``policy-manager
--allow-intrinsic wrmsr``).  The call guard wraps every call to an
external kernel symbol, so the policy module can hold a per-kernel
allowlist of callable symbols.  Indirect calls do not exist in the
mini-C subset, so together with the inline-asm attestation this gives
whole-module call-target integrity.  A denial of either ends in the
memory guard's deny path.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from ..abi import CALL_GUARD_SYMBOL, GUARD_SYMBOLS, INTRINSIC_GUARD_SYMBOL
from ..ir import Function, FunctionType, Module, PointerType, I8, I8PTR, VOID
from ..ir.instructions import Call, Cast
from ..ir.values import ConstantString, GlobalVariable

#: The privileged operations the simulated kernel exposes as natives.
PRIVILEGED_INTRINSICS = frozenset(
    {"wrmsr", "rdmsr", "cli", "sti", "hlt", "outb", "inb", "invlpg", "wbinvd"}
)

META_INTRINSIC_GUARDED = "carat.intrinsic_guarded"
META_CALL_GUARDED = "carat.call_guarded"

#: Guard plumbing itself must not be recursively guarded.
_EXEMPT = frozenset(GUARD_SYMBOLS)


class NameGuard(NamedTuple):
    """What one name-guard flavour inserts, and where."""

    pass_name: str
    symbol: str
    #: Module metadata key marking the module as done (set with or
    #: without sites, so a second run is a no-op).
    meta: str
    #: Name prefix of the per-callee name string global.
    global_prefix: str
    #: Name hint of the ``i8*`` cast of that global at each site.
    cast_name: str
    is_site: Callable[[Call], bool]


INTRINSIC_GUARD = NameGuard(
    "kop-intrinsic-guard", INTRINSIC_GUARD_SYMBOL, META_INTRINSIC_GUARDED,
    ".intr.", "iname",
    lambda call: call.callee.name in PRIVILEGED_INTRINSICS,
)

CALL_GUARD = NameGuard(
    "kop-call-guard", CALL_GUARD_SYMBOL, META_CALL_GUARDED,
    ".callee.", "cname",
    lambda call: (
        call.callee.is_declaration
        and call.callee.name not in _EXEMPT
        and not call.is_guard
    ),
)


class NameGuardPass:
    """Insert ``spec.symbol(name)`` before each call ``spec.is_site``
    selects.  The guard is declared only when a site exists, so a module
    without sites stays byte-identical."""

    def __init__(self, spec: NameGuard) -> None:
        self.spec = spec
        self.name = spec.pass_name
        self.guards_inserted = 0
        self.changed_functions: list[Function] = []

    def run(self, module: Module) -> bool:
        spec = self.spec
        self.changed_functions = []
        if module.metadata.get(spec.meta):
            return False
        sites = [
            (block, inst)
            for fn in module.defined_functions()
            for block in fn.blocks
            for inst in list(block.instructions)
            if isinstance(inst, Call) and spec.is_site(inst)
        ]
        module.metadata[spec.meta] = True
        if not sites:
            return False
        # Sites come in function order: one entry per changed function.
        self.changed_functions = list(
            {id(b.parent): b.parent for b, _ in sites}.values()
        )
        guard = module.declare_function(
            spec.symbol, FunctionType(VOID, [I8PTR]), "external"
        )
        name_globals: dict[str, GlobalVariable] = {}
        for block, inst in sites:
            target = inst.callee.name
            g = name_globals.get(target)
            if g is None:
                gname = spec.global_prefix + target
                g = module.globals.get(gname)
                if g is None:
                    data = ConstantString(target.encode() + b"\x00")
                    g = GlobalVariable(data.type, gname, data, "internal", True)
                    module.add_global(g)
                name_globals[target] = g
            fn = block.parent
            assert fn is not None
            cast = Cast(
                "bitcast", g, PointerType(I8), fn.unique_name(spec.cast_name)
            )
            block.insert_before(cast, inst)
            block.insert_before(Call(guard, [cast]), inst)
            self.guards_inserted += 1
        return True


IntrinsicGuardPass = partial(NameGuardPass, INTRINSIC_GUARD)
CallGuardPass = partial(NameGuardPass, CALL_GUARD)


__all__ = [
    "CALL_GUARD",
    "CALL_GUARD_SYMBOL",
    "CallGuardPass",
    "INTRINSIC_GUARD",
    "INTRINSIC_GUARD_SYMBOL",
    "IntrinsicGuardPass",
    "META_CALL_GUARDED",
    "META_INTRINSIC_GUARDED",
    "NameGuard",
    "NameGuardPass",
    "PRIVILEGED_INTRINSICS",
]

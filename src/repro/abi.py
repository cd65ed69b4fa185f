"""The CARAT KOP ABI: the contract between compiler, kernel, and policy.

The paper's entire interface is one symbol (§3.1)::

    void carat_guard(void* addr, size_t size, int access_flags);

This module pins down that signature, the access-flag encoding, and the
metadata keys the signer attests to, so the compiler passes, the policy
module, and the kernel loader never drift apart.
"""

from __future__ import annotations

from .ir import FunctionType, I8PTR, I32, I64, VOID
from .ir.instructions import Call

#: The single symbol a protected module is linked against at insertion.
GUARD_SYMBOL = "carat_guard"
#: The paper §5 guards: privileged intrinsics and module->kernel calls,
#: each ``void (i8* name)``.
INTRINSIC_GUARD_SYMBOL = "carat_intrinsic_guard"
CALL_GUARD_SYMBOL = "carat_call_guard"
#: Every guard the policy module exports (memory guard first).
GUARD_SYMBOLS = (GUARD_SYMBOL, INTRINSIC_GUARD_SYMBOL, CALL_GUARD_SYMBOL)

#: Access-intent flags passed as the guard's third argument.
FLAG_READ = 0x1
FLAG_WRITE = 0x2
FLAG_EXEC = 0x4       # used by the CFI extension (paper §5)
FLAG_INTRINSIC = 0x8  # used by the privileged-intrinsic extension (paper §5)

#: Module metadata keys the compiler sets and the signer covers.
META_GUARDED = "carat.guarded"
META_GUARD_COUNT = "carat.guard_count"
META_HAS_ASM = "carat.has_inline_asm"
META_COMPILER = "carat.compiler"
META_OPT_LEVEL = "carat.opt_level"
META_GUARDS_REMOVED = "carat.guards_removed"
META_GUARDS_HOISTED = "carat.guards_hoisted"
META_GUARDS_COALESCED = "carat.guards_coalesced"
META_GUARDS_PROVEN = "carat.guards_proven"
META_GUARDS_DYNAMIC = "carat.guards_dynamic"

#: Identity string of our "clang 14.0.0 + CARAT KOP pass" stand-in.
COMPILER_ID = "caratcc-0.1 (minicc + kop-guard-pass)"


def guard_function_type() -> FunctionType:
    """``void (i8* addr, i64 size, i32 flags)``."""
    return FunctionType(VOID, [I8PTR, I64, I32])


def is_guard_call(inst) -> bool:
    """A memory-guard call site: a ``Call`` marked ``is_guard`` by the
    guard pass, or any call to ``carat_guard``."""
    return type(inst) is Call and (
        inst.is_guard or inst.callee.name == GUARD_SYMBOL
    )


def guard_sites(fn):
    """``fn``'s guard call sites in site-ordinal order: blocks in order,
    each up to its terminator.  The tracer's site ids, the verifier's
    verdict bits and the elision map all index this walk, as the
    compiled translator's ordinals count it."""
    for block in fn.blocks:
        for inst in block.instructions:
            if inst.is_terminator:
                break
            if is_guard_call(inst):
                yield inst


def to_signed64(value: int) -> int:
    """Reinterpret an unsigned 64-bit pattern as signed two's complement.

    Both execution engines use this for ``gep`` index arithmetic, where a
    negative offset arrives as its wrapped unsigned representation.
    """
    return value - (1 << 64) if value > 0x7FFFFFFFFFFFFFFF else value


def to_signed32(value: int) -> int:
    """Reinterpret an unsigned 32-bit pattern as signed two's complement.

    Driver entry points return ``int``: the VM hands back the unsigned
    i32 bit pattern, and a negative errno must be re-signed.
    """
    return value - (1 << 32) if value > 0x7FFFFFFF else value


def flags_name(flags: int) -> str:
    """Human-readable rendering of an access-flag bitmap."""
    parts = []
    if flags & FLAG_READ:
        parts.append("R")
    if flags & FLAG_WRITE:
        parts.append("W")
    if flags & FLAG_EXEC:
        parts.append("X")
    if flags & FLAG_INTRINSIC:
        parts.append("I")
    return "".join(parts) or "-"


__all__ = [
    "CALL_GUARD_SYMBOL",
    "COMPILER_ID",
    "FLAG_EXEC",
    "FLAG_INTRINSIC",
    "FLAG_READ",
    "FLAG_WRITE",
    "GUARD_SYMBOL",
    "GUARD_SYMBOLS",
    "INTRINSIC_GUARD_SYMBOL",
    "META_COMPILER",
    "META_GUARDED",
    "META_GUARDS_COALESCED",
    "META_GUARDS_DYNAMIC",
    "META_GUARDS_HOISTED",
    "META_GUARDS_PROVEN",
    "META_GUARDS_REMOVED",
    "META_GUARD_COUNT",
    "META_HAS_ASM",
    "META_OPT_LEVEL",
    "flags_name",
    "guard_function_type",
    "is_guard_call",
    "to_signed32",
    "to_signed64",
]

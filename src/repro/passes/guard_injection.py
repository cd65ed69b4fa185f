"""The CARAT KOP guard-injection pass (paper §3.3 — the core contribution).

    "To ensure guards are inserted, it simply iterates over each
     load/store operation and inserts a call to the guard function
     before.  Unlike CARAT CAKE, CARAT KOP does not currently optimize
     guards—every memory access results in a guard, even if it would be
     redundant."

The pass declares ``carat_guard`` (resolved against the policy module at
insmod time, §3.2) and, before every ``load`` and ``store`` in every
defined function, inserts::

    call void @carat_guard(i8* <addr>, i64 <size>, i32 <R|W>)

The paper notes the entire transform is ~200 lines of C++; this pass is
of comparable size and shape.
"""

from __future__ import annotations

from typing import Optional

from .. import abi
from ..ir import BasicBlock, Function, I8PTR, Module
from ..ir.instructions import Call, Cast, Gep, Instruction, Load, Store
from ..ir.values import ConstantInt, Value
from ..ir.types import I32 as _I32, I64 as _I64


def emit_guard(
    block: BasicBlock,
    before: Instruction,
    callee: Function,
    pointer: Value,
    size: Value,
    flags: Value,
    offset: Optional[tuple[str, int]] = None,
) -> Call:
    """Insert the guard ``callee(pointer [+ bytes], size, flags)`` in
    front of ``before``: a byte-offset GEP when ``offset`` is given as
    ``(name prefix, bytes)``, a bitcast named ``gaddr`` when the address
    is not already the guard's ``i8*`` operand, then the ``is_guard``
    call."""
    fn = block.parent
    if offset is not None:
        tag, nbytes = offset
        pointer = block.insert_before(
            Gep(pointer.type, pointer, ConstantInt(_I64, 0), 0, nbytes,
                fn.unique_name(tag)),
            before,
        )
    if pointer.type is not I8PTR:
        pointer = block.insert_before(
            Cast("bitcast", pointer, I8PTR, fn.unique_name("gaddr")), before
        )
    call = Call(callee, [pointer, size, flags])
    call.is_guard = True
    return block.insert_before(call, before)


class GuardInjectionPass:
    """Insert a policy-guard call before every load and store."""

    name = "kop-guard"

    def __init__(self) -> None:
        self.guards_inserted = 0
        self.changed_functions: list[Function] = []

    def run(self, module: Module) -> bool:
        self.changed_functions = []
        if module.metadata.get(abi.META_GUARDED):
            return False  # already transformed; the pass is idempotent
        guard = module.declare_function(
            abi.GUARD_SYMBOL, abi.guard_function_type(), linkage="external"
        )
        inserted = 0
        for fn in module.defined_functions():
            before = inserted
            for block in fn.blocks:
                # Snapshot: we mutate the instruction list as we walk it.
                for inst in list(block.instructions):
                    if isinstance(inst, Load):
                        flags = abi.FLAG_READ
                    elif isinstance(inst, Store):
                        flags = abi.FLAG_WRITE
                    else:
                        continue
                    emit_guard(
                        block, inst, guard, inst.pointer,
                        ConstantInt(_I64, inst.access_size),
                        ConstantInt(_I32, flags),
                    )
                    inserted += 1
            if inserted > before:
                self.changed_functions.append(fn)
        module.metadata[abi.META_GUARDED] = True
        module.metadata[abi.META_GUARD_COUNT] = inserted
        self.guards_inserted += inserted
        return inserted > 0


__all__ = ["GuardInjectionPass", "emit_guard"]

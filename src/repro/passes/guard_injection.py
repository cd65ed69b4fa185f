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

from .. import abi
from ..ir import Function, Module, PointerType, I8
from ..ir.instructions import Call, Cast, Instruction, Load, Store
from ..ir.values import ConstantInt, Value
from ..ir.types import I32 as _I32, I64 as _I64


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
                        pointer: Value = inst.pointer
                        size = inst.access_size
                        flags = abi.FLAG_READ
                    elif isinstance(inst, Store):
                        pointer = inst.pointer
                        size = inst.access_size
                        flags = abi.FLAG_WRITE
                    else:
                        continue
                    addr = self._as_i8_pointer(pointer, block, inst, fn)
                    call = Call(
                        guard,
                        [
                            addr,
                            ConstantInt(_I64, size),
                            ConstantInt(_I32, flags),
                        ],
                    )
                    call.is_guard = True
                    block.insert_before(call, inst)
                    inserted += 1
            if inserted > before:
                self.changed_functions.append(fn)
        module.metadata[abi.META_GUARDED] = True
        module.metadata[abi.META_GUARD_COUNT] = inserted
        self.guards_inserted += inserted
        return inserted > 0

    @staticmethod
    def _as_i8_pointer(pointer: Value, block, before: Instruction, fn) -> Value:
        """The guarded address as ``i8*`` (bitcast inserted if needed)."""
        if isinstance(pointer.type, PointerType) and pointer.type.pointee is I8:
            return pointer
        cast = Cast("bitcast", pointer, PointerType(I8), fn.unique_name("gaddr"))
        block.insert_before(cast, before)
        return cast


__all__ = ["GuardInjectionPass"]

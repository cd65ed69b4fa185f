"""Peephole simplification: constant folding and comparison collapsing.

The front end emits C-faithful but noisy sequences (``sext i32 0 to
i64``, ``icmp ne (zext i1 %c), 0``).  This pass folds them so instruction
and guard counts reflect what an optimizing compiler would hand the CARAT
KOP pass — the paper applies its transform to normally-optimized kernel
builds (§4.1: "the same compiler was used, with the same flags").

Constants fold through :mod:`repro.ir.arith`, the functions the VM
executes, so a folded value is the value the instruction would have
computed at run time; a constant division by zero is left to panic there.

Run *before* guard injection: it never touches loads/stores, but fewer
dead instructions means a cleaner timing signal in the VM.
"""

from __future__ import annotations

from typing import Optional

from ..ir import Function, Module, arith
from ..ir.instructions import BinOp, Cast, ICmp, Phi, Select
from ..ir.types import I1, IntType
from ..ir.values import ConstantInt, Value


def _fold_cast(inst: Cast) -> Optional[Value]:
    v = inst.value
    # inttoptr(ptrtoint x) -> x and ptrtoint(inttoptr x) -> x when the
    # types line up: the front end materializes pointers as i64 in memory,
    # so these round trips are everywhere and hide address roots from the
    # guard optimizer.
    if isinstance(v, Cast):
        if (
            inst.op == "inttoptr"
            and v.op == "ptrtoint"
            and v.value.type is inst.type
        ):
            return v.value
        if (
            inst.op == "ptrtoint"
            and v.op == "inttoptr"
            and v.value.type is inst.type
        ):
            return v.value
        if inst.op == "bitcast" and v.op == "bitcast" and v.value.type is inst.type:
            return v.value
    if (
        isinstance(v, ConstantInt)
        and inst.op in ("zext", "trunc", "sext")
        and isinstance(inst.type, IntType)
    ):
        return ConstantInt(
            inst.type, arith.cast(inst.op, v.type, inst.type)(v.value)
        )
    return None


def _fold_binop(inst: BinOp) -> Optional[Value]:
    a, b = inst.lhs, inst.rhs
    if not (isinstance(a, ConstantInt) and isinstance(b, ConstantInt)):
        # Algebraic identities with one constant.
        if isinstance(b, ConstantInt):
            if inst.op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr") and b.value == 0:
                return a
            if inst.op == "mul" and b.value == 1:
                return a
        if isinstance(a, ConstantInt):
            if inst.op in ("add", "or", "xor") and a.value == 0:
                return b
            if inst.op == "mul" and a.value == 1:
                return b
        return None
    try:
        return ConstantInt(a.type, arith.binop(inst.op, a.type)(a.value, b.value))
    except ZeroDivisionError:
        return None  # the division panics at run time; leave it there


def _fold_icmp(inst: ICmp) -> Optional[Value]:
    a, b = inst.lhs, inst.rhs
    if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
        return ConstantInt(
            I1, arith.icmp(inst.pred, a.type)(a.value, b.value)
        )
    # icmp ne (zext i1 %c to iN), 0  ->  %c      (the bool-recheck pattern)
    # icmp eq (zext i1 %c to iN), 0  ->  xor %c, 1 is not cheaper; skip.
    if (
        inst.pred == "ne"
        and isinstance(b, ConstantInt)
        and b.value == 0
        and isinstance(a, Cast)
        and a.op == "zext"
        and isinstance(a.value.type, IntType)
        and a.value.type.bits == 1
    ):
        return a.value
    return None


class PeepholePass:
    """Iterate local simplifications to a fixed point."""

    name = "peephole"

    def __init__(self) -> None:
        self.folded = 0
        self.changed_functions: list[Function] = []

    def run(self, module: Module) -> bool:
        self.changed_functions = [
            fn for fn in module.defined_functions() if self._run_on_function(fn)
        ]
        return bool(self.changed_functions)

    def _run_on_function(self, fn: Function) -> bool:
        any_change = False
        while True:
            replacements: dict[int, Value] = {}
            for inst in fn.instructions():
                folded: Optional[Value] = None
                if isinstance(inst, Cast):
                    folded = _fold_cast(inst)
                elif isinstance(inst, BinOp):
                    folded = _fold_binop(inst)
                elif isinstance(inst, ICmp):
                    folded = _fold_icmp(inst)
                elif isinstance(inst, Select) and isinstance(
                    inst.operands[0], ConstantInt
                ):
                    folded = (
                        inst.operands[1]
                        if inst.operands[0].value
                        else inst.operands[2]
                    )
                if folded is not None:
                    replacements[id(inst)] = folded
            if not replacements:
                return any_change
            for inst in fn.instructions():
                for i, op in enumerate(inst.operands):
                    r = replacements.get(id(op))
                    while r is not None and id(r) in replacements:
                        r = replacements[id(r)]
                    if r is not None:
                        inst.operands[i] = r
                if isinstance(inst, Phi):
                    new_incoming = []
                    for v, blk in inst.incoming:
                        r = replacements.get(id(v))
                        while r is not None and id(r) in replacements:
                            r = replacements[id(r)]
                        new_incoming.append((r if r is not None else v, blk))
                    inst.incoming = new_incoming
                    inst.operands = [v for v, _ in new_incoming]
            # Remove the folded instructions themselves.
            for block in fn.blocks:
                block.instructions = [
                    i for i in block.instructions if id(i) not in replacements
                ]
            self.folded += len(replacements)
            any_change = True


__all__ = ["PeepholePass"]

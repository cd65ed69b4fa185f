"""IR well-formedness verifier.

The kernel-side loader runs this on every module before insertion
(paper §3.2: modules are validated at insmod time); the compiler pipeline
runs it on the front end's output and, after every pass, on each
function that pass changed.  A verification failure raises
:class:`VerificationError` listing every violation found.
"""

from __future__ import annotations

from typing import Iterable

from .instructions import (
    Br,
    Call,
    Instruction,
    Load,
    Phi,
    Ret,
    Store,
    Switch,
)
from .module import BasicBlock, Function, Module
from .types import IntType, PointerType, VOID
from .values import Argument, Constant, GlobalValue, UndefValue


class VerificationError(ValueError):
    """One or more IR invariants are violated."""

    def __init__(self, errors: list[str]):
        super().__init__(
            f"{len(errors)} IR verification error(s):\n  " + "\n  ".join(errors)
        )
        self.errors = errors


def verify_module(module: Module) -> None:
    """Verify every function in the module; raise on any violation."""
    errors: list[str] = []
    for fn in module.defined_functions():
        errors.extend(_verify_function(fn, module))
    if errors:
        raise VerificationError(errors)


def verify_functions(fns: Iterable[Function], module: Module | None = None) -> None:
    """Verify just ``fns``: the pass manager's check of the functions a
    pass reports it changed."""
    errors = [e for fn in fns for e in _verify_function(fn, module)]
    if errors:
        raise VerificationError(errors)


def verify_function(fn: Function, module: Module | None = None) -> None:
    verify_functions((fn,), module)


# Operand and instruction classes are dispatched by ``type()`` through
# per-class memos: the isinstance chains below run once per class, not
# once per operand.  Kinds start at 1 so a memo miss reads as falsy.
_PLAIN, _INST, _UNDEF, _ARG, _BAD = range(1, 6)
_OPERAND_KIND: dict[type, int] = {}


def _operand_kind(cls: type) -> int:
    if issubclass(cls, UndefValue):
        kind = _UNDEF
    elif issubclass(cls, (Constant, GlobalValue)):
        kind = _PLAIN
    elif issubclass(cls, Argument):
        kind = _ARG
    elif issubclass(cls, Instruction):
        kind = _INST
    else:
        kind = _BAD
    _OPERAND_KIND[cls] = kind
    return kind


_OTHER, _LOAD, _STORE, _RET, _BR, _SWITCH, _PHI, _CALL = range(1, 9)
_INST_KIND: dict[type, int] = {}


def _inst_kind(cls: type) -> int:
    for base, kind in ((Load, _LOAD), (Store, _STORE), (Ret, _RET),
                       (Br, _BR), (Switch, _SWITCH), (Phi, _PHI),
                       (Call, _CALL)):
        if issubclass(cls, base):
            break
    else:
        kind = _OTHER
    _INST_KIND[cls] = kind
    return kind


def _verify_function(fn: Function, module: Module | None) -> list[str]:
    errors: list[str] = []
    where = f"@{fn.name}"

    if not fn.blocks:
        errors.append(f"{where}: definition has no blocks")
        return errors

    block_set = set(map(id, fn.blocks))
    names_seen: set[str] = set()
    arg_ids = set(map(id, fn.args))
    all_insts = {id(inst) for block in fn.blocks for inst in block.instructions}
    functions = module.functions if module is not None else None
    want_ret = fn.return_type
    preds = None  # only phis need the CFG
    # Straight-line def-before-use within each block (phis exempt); its
    # errors follow every other error of the function.
    late: list[str] = []
    operand_kinds = _OPERAND_KIND
    inst_kinds = _INST_KIND

    def err(message: str) -> None:
        """Report at the instruction being checked (message built only
        on error)."""
        errors.append(f"{where}:{block.name}[{i}] ({inst.opcode}): {message}")

    for block in fn.blocks:
        if block.parent is not fn:
            errors.append(f"{where}:{block.name}: block parent link broken")
        insts = block.instructions
        last = len(insts) - 1
        if last < 0 or not insts[last].is_terminator:
            errors.append(f"{where}:{block.name}: block lacks a terminator")
        local_defined: set[int] = set()
        first_non_phi = -1
        for i, inst in enumerate(insts):
            kind = inst_kinds.get(type(inst)) or _inst_kind(type(inst))
            if inst.parent is not block:
                err("parent link broken")
            if inst.is_terminator and i != last:
                err("terminator not last in block")
            if kind == _PHI:
                if first_non_phi < 0:
                    first_non_phi = block.first_non_phi_index()
                if i >= first_non_phi:
                    err("phi after non-phi instruction")
            name = inst.name
            if name:
                if inst.type is VOID:
                    err("void instruction has a name")
                elif name in names_seen:
                    err(f"duplicate value name %{name}")
                names_seen.add(name)
            # Operand sanity: every operand must be a constant, an argument
            # of this function, a global, or an instruction of this function.
            operands = inst.operands
            for op in operands:
                op_kind = operand_kinds.get(type(op)) or _operand_kind(type(op))
                if op_kind == _PLAIN:
                    continue
                if op_kind == _INST:
                    oid = id(op)
                    if oid not in all_insts:
                        err(f"operand %{op.name} from another function")
                    elif (
                        op.parent is block
                        and kind != _PHI
                        and oid not in local_defined
                        and _comes_after(op, inst, block)
                    ):
                        late.append(
                            f"{where}:{block.name}: %{op.name or inst.opcode} "
                            f"used before defined in its own block"
                        )
                elif op_kind == _UNDEF:
                    if op.name:
                        err(f"unresolved placeholder %{op.name}")
                elif op_kind == _ARG:
                    if id(op) not in arg_ids:
                        err(f"foreign argument %{op.name}")
                else:
                    err(f"bad operand kind {type(op).__name__}")
            # Per-kind checks.  Load/Store/Ret/Br keep their operands at
            # fixed positions, so they are read directly.
            if kind == _OTHER:
                pass
            elif kind == _LOAD:
                pt = operands[0].type
                if not isinstance(pt, PointerType):
                    err("load from non-pointer")
                elif pt.pointee is not inst.type:
                    err("load result type mismatch")
            elif kind == _STORE:
                pt = operands[1].type
                if not isinstance(pt, PointerType) or \
                        pt.pointee is not operands[0].type:
                    err("store type mismatch")
            elif kind == _CALL:
                if functions is not None and inst.callee.name not in functions:
                    err(f"callee @{inst.callee.name} not in module")
            elif kind == _RET:
                if not operands:
                    if want_ret is not VOID:
                        err("ret void from non-void function")
                elif operands[0].type is not want_ret:
                    err(f"ret type {operands[0].type}, "
                        f"function returns {want_ret}")
            elif kind == _BR or kind == _SWITCH:
                targets = inst.targets
                if kind == _BR and len(targets) == 2:
                    cond = operands[0]
                    if not (isinstance(cond.type, IntType)
                            and cond.type.bits == 1):
                        err("branch condition is not i1")
                for target in targets:
                    if id(target) not in block_set:
                        err(f"branch to foreign block {target.name}")
            elif kind == _PHI:
                if preds is None:
                    preds = fn.predecessors()
                pred_names = sorted(b.name for b in preds[block])
                incoming_names = sorted(b.name for _, b in inst.incoming)
                if pred_names != incoming_names:
                    err(f"phi incoming blocks {incoming_names} != "
                        f"predecessors {pred_names}")
            local_defined.add(id(inst))

    errors.extend(late)
    return errors


def _comes_after(a: Instruction, b: Instruction, block: BasicBlock) -> bool:
    """True if ``a`` appears strictly after ``b`` within ``block``."""
    seen_b = False
    for inst in block.instructions:
        if inst is b:
            seen_b = True
        if inst is a:
            return seen_b and a is not b
    return False


__all__ = [
    "VerificationError", "verify_function", "verify_functions", "verify_module",
]

"""Textual IR printer.

The printed form is the *canonical serialization* used by the signing
stage (the signature covers exactly these bytes), so the printer is
deterministic: symbols print in insertion order and value names are taken
verbatim.  :mod:`repro.ir.parser` parses this format back; round-tripping
is covered by property tests.
"""

from __future__ import annotations

from typing import Any, Callable

from .instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    FCmp,
    Gep,
    ICmp,
    InlineAsm,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from .module import BasicBlock, Function, Module
from .types import VOID, IRType
from .values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalValue,
    UndefValue,
    Value,
)


# The printer runs twice per protected build (the signer's canonical
# print and insmod's), so it dispatches on ``type()`` through per-class
# memos, like the verifier, and renders each interned type once.
_TYPE_TEXT: dict[IRType, str] = {}


def _type_text(t: IRType) -> str:
    text = _TYPE_TEXT.get(t)
    if text is None:
        text = _TYPE_TEXT[t] = str(t)
    return text


def _formatter(formats: dict, obj, what: str) -> Callable:
    """The format of the first class in ``formats`` that ``obj`` is an
    instance of, memoised under ``type(obj)``."""
    for base, fmt in list(formats.items()):
        if isinstance(obj, base):
            formats[type(obj)] = fmt
            return fmt
    raise TypeError(f"cannot print {what} {obj!r}")


#: ``class -> format(operand)``, in the order a subclass is matched.
_OPERAND_FORMAT: dict[type, Callable[[Any], str]] = {
    ConstantInt: lambda v: f"{_type_text(v.type)} {v.signed}",
    ConstantFloat: lambda v: f"{_type_text(v.type)} {v.value!r}",
    ConstantNull: lambda v: f"{_type_text(v.type)} null",
    UndefValue: lambda v: f"{_type_text(v.type)} undef",
    ConstantString: lambda v: v.ref(),
    GlobalValue: lambda v: f"{_type_text(v.type)} @{v.name}",
    Argument: lambda v: f"{_type_text(v.type)} %{v.name}",
    Instruction: lambda v: f"{_type_text(v.type)} %{v.name}",
}


def _operand(v: Value) -> str:
    """Render an operand as ``<type> <ref>``."""
    fmt = _OPERAND_FORMAT.get(type(v)) or _formatter(_OPERAND_FORMAT, v, "operand")
    return fmt(v)


def _escape_bytes(data: bytes) -> str:
    return "".join(
        chr(b) if 32 <= b < 127 and chr(b) not in '"\\' else f"\\{b:02x}"
        for b in data
    )


def _br(inst: Br, lhs: str) -> str:
    if inst.is_conditional:
        return (
            f"br {_operand(inst.condition)}, "  # type: ignore[arg-type]
            f"label %{inst.targets[0].name}, label %{inst.targets[1].name}"
        )
    return f"br label %{inst.targets[0].name}"


def _switch(inst: Switch, lhs: str) -> str:
    cases = ", ".join(f"{c}: label %{b.name}" for c, b in inst.cases)
    return (
        f"switch {_operand(inst.operands[0])}, "
        f"default label %{inst.default.name} [ {cases} ]"
    )


def _phi(inst: Phi, lhs: str) -> str:
    arms = ", ".join(f"[ {_operand(v)}, %{b.name} ]" for v, b in inst.incoming)
    return f"{lhs}phi {_type_text(inst.type)} {arms}"


def _call(inst: Call, lhs: str) -> str:
    args = ", ".join(_operand(a) for a in inst.args)
    op = "call.guard" if inst.is_guard else "call"
    if inst.type is VOID:
        return f"{op} void @{inst.callee.name}({args})"
    return f"{lhs}{op} {_type_text(inst.type)} @{inst.callee.name}({args})"


#: ``class -> format(inst, lhs)``, in the order a subclass is matched.
_INSTRUCTION_FORMAT: dict[type, Callable[[Any, str], str]] = {
    Alloca: lambda i, lhs: (
        f"{lhs}alloca {_type_text(i.allocated_type)}, count {i.count}"),
    Load: lambda i, lhs: f"{lhs}load {_operand(i.pointer)}",
    Store: lambda i, lhs: f"store {_operand(i.value)}, {_operand(i.pointer)}",
    Gep: lambda i, lhs: (
        f"{lhs}gep {_type_text(i.type)} : {_operand(i.base)}, "
        f"{_operand(i.index)}, scale {i.scale}, disp {i.displacement}"),
    BinOp: lambda i, lhs: f"{lhs}{i.op} {_operand(i.lhs)}, {_operand(i.rhs)}",
    ICmp: lambda i, lhs: (
        f"{lhs}icmp {i.pred} {_operand(i.lhs)}, {_operand(i.rhs)}"),
    FCmp: lambda i, lhs: (
        f"{lhs}fcmp {i.pred} {_operand(i.operands[0])}, "
        f"{_operand(i.operands[1])}"),
    Cast: lambda i, lhs: (
        f"{lhs}{i.op} {_operand(i.value)} to {_type_text(i.type)}"),
    Select: lambda i, lhs: (
        f"{lhs}select {', '.join(_operand(o) for o in i.operands)}"),
    Br: _br,
    Switch: _switch,
    Ret: lambda i, lhs: (
        f"ret {_operand(i.value)}" if i.value is not None else "ret void"),
    Unreachable: lambda i, lhs: "unreachable",
    Phi: _phi,
    Call: _call,
    InlineAsm: lambda i, lhs: f'asm "{_escape_bytes(i.asm_text.encode())}"',
}


def print_instruction(inst: Instruction) -> str:
    """Render a single instruction (without indentation)."""
    fmt = _INSTRUCTION_FORMAT.get(type(inst)) or _formatter(
        _INSTRUCTION_FORMAT, inst, "instruction")
    name = inst.name
    return fmt(inst, f"%{name} = " if name and inst.type is not VOID else "")


def print_block(block: BasicBlock) -> str:
    lines = [f"{block.name}:"]
    for inst in block.instructions:
        lines.append(f"  {print_instruction(inst)}")
    return "\n".join(lines)


def print_function(fn: Function) -> str:
    params = ", ".join(f"{a.type} %{a.name}" for a in fn.args)
    if fn.function_type.vararg:
        params = f"{params}, ..." if params else "..."
    sig = f"{fn.return_type} @{fn.name}({params})"
    attrs = "".join(f" #{a}" for a in sorted(fn.attributes))
    if fn.is_declaration:
        return f"declare {fn.linkage} {sig}{attrs}"
    body = "\n".join(print_block(b) for b in fn.blocks)
    return f"define {fn.linkage} {sig}{attrs} {{\n{body}\n}}"


def _print_metadata_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return f'"{v}"'
    raise TypeError(f"unsupported metadata value {v!r}")


def print_module(module: Module) -> str:
    """Serialize a full module to its canonical textual form."""
    parts: list[str] = [f'module "{module.name}"']
    for key in sorted(module.metadata):
        parts.append(f"!{key} = {_print_metadata_value(module.metadata[key])}")
    for st in module.structs.values():
        fields = ", ".join(str(f) for f in st.fields)
        names = ", ".join(st.field_names)
        parts.append(f"%{st.name} = type {{ {fields} }} fields({names})")
    for g in module.globals.values():
        decl = f"@{g.name} = {g.linkage}"
        if g.is_const:
            decl += " const"
        decl += f" global {g.value_type}"
        init = g.initializer
        if init is not None:
            if isinstance(init, ConstantString):
                decl += f' c"{_escape_bytes(init.data)}"'
            elif isinstance(init, ConstantInt):
                decl += f" {init.signed}"
            elif isinstance(init, ConstantFloat):
                decl += f" {init.value!r}"
            elif isinstance(init, ConstantNull):
                decl += " null"
            else:
                raise TypeError(f"unsupported initializer {init!r}")
        else:
            decl += " zeroinit"
        parts.append(decl)
    # Declarations precede definitions so the parser can resolve every
    # direct call as it reads function bodies.
    for fn in module.functions.values():
        if fn.is_declaration:
            parts.append(print_function(fn))
    for fn in module.functions.values():
        if not fn.is_declaration:
            parts.append(print_function(fn))
    return "\n\n".join(parts) + "\n"


__all__ = ["print_block", "print_function", "print_instruction", "print_module"]

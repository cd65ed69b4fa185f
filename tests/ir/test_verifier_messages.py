"""Every ``verify_module`` message, pinned exactly.

One corrupted-IR case per message the IR verifier can emit.  Each case
pins the *whole* error list — text and order — so a rewrite of the
verifier must report the same violations, in the same words and the
same sequence (def-before-use errors come last in each function).
"""

import pytest

from repro.ir import (
    BasicBlock,
    Function,
    FunctionType,
    GlobalVariable,
    I1,
    I32,
    I64,
    IRBuilder,
    Module,
    VOID,
    VerificationError,
    verify_function,
    verify_module,
)
from repro.ir.instructions import BinOp, Br, Load, Phi, Ret, Store
from repro.ir.values import Argument, ConstantInt, UndefValue, Value


def _fresh(ret=VOID, params=(), name="f"):
    m = Module("vm")
    fn = Function(name, FunctionType(ret, list(params)))
    m.add_function(fn)
    return m, fn


def _append(block, *insts):
    for inst in insts:
        inst.parent = block
        block.instructions.append(inst)


def _i32(v):
    return ConstantInt(I32, v)


def no_terminator():
    m, fn = _fresh()
    fn.add_block("entry")
    return m


def block_parent_broken():
    m, fn = _fresh()
    bb = fn.add_block("entry")
    IRBuilder(bb).ret()
    bb.parent = None
    return m


def inst_parent_broken():
    m, fn = _fresh()
    bb = fn.add_block("entry")
    bb.instructions.append(Ret())
    return m


def terminator_not_last():
    m, fn = _fresh()
    bb = fn.add_block("entry")
    _append(bb, Ret(), BinOp("add", _i32(1), _i32(2), "x"))
    return m


def phi_after_non_phi():
    m, fn = _fresh()
    bb = fn.add_block("entry")
    b = IRBuilder(bb)
    b.add(b.const_i32(1), b.const_i32(1), "a")
    _append(bb, Phi(I32, "late"))
    b.ret()
    return m


def void_named():
    m, fn = _fresh()
    bb = fn.add_block("entry")
    r = Ret()
    r.name = "r"
    _append(bb, r)
    return m


def duplicate_name():
    m, fn = _fresh()
    b = IRBuilder(fn.add_block("entry"))
    b.add(b.const_i32(1), b.const_i32(2), "x")
    b.add(b.const_i32(3), b.const_i32(4), "x")
    b.ret()
    return m


def unresolved_placeholder():
    m, fn = _fresh(ret=I32)
    _append(fn.add_block("entry"), Ret(UndefValue(I32, "dangling")))
    return m


def foreign_argument():
    m, fn = _fresh(ret=I32)
    stranger = Argument(I32, "p", 0)
    _append(fn.add_block("entry"), Ret(stranger))
    return m


def operand_from_other_function():
    m, fn = _fresh(ret=I32)
    other = Function("g", FunctionType(I32, []))
    m.add_function(other)
    ob = IRBuilder(other.add_block("entry"))
    val = ob.add(ob.const_i32(1), ob.const_i32(2), "v")
    ob.ret(val)
    _append(fn.add_block("entry"), Ret(val))
    return m


def bad_operand_kind():
    m, fn = _fresh(ret=I32)
    _append(fn.add_block("entry"), Ret(Value(I32, "odd")))
    return m


def load_from_non_pointer():
    m, fn = _fresh()
    g = GlobalVariable(I32, "g")
    m.add_global(g)
    bb = fn.add_block("entry")
    ld = Load(g, "v")
    ld.operands[0] = _i32(0)
    _append(bb, ld, Ret())
    return m


def load_result_mismatch():
    m, fn = _fresh()
    g = GlobalVariable(I32, "g")
    m.add_global(g)
    bb = fn.add_block("entry")
    ld = Load(g, "v")
    ld.type = I64
    _append(bb, ld, Ret())
    return m


def store_mismatch():
    m, fn = _fresh()
    g = GlobalVariable(I32, "g")
    m.add_global(g)
    bb = fn.add_block("entry")
    st = Store(_i32(7), g)
    st.operands[0] = ConstantInt(I64, 7)
    _append(bb, st, Ret())
    return m


def ret_void_from_value_function():
    m, fn = _fresh(ret=I64)
    IRBuilder(fn.add_block("entry")).ret()
    return m


def ret_type_mismatch():
    m, fn = _fresh(ret=I64)
    _append(fn.add_block("entry"), Ret(_i32(1)))
    return m


def branch_condition_not_i1():
    m, fn = _fresh()
    entry = fn.add_block("entry")
    yes = fn.add_block("yes")
    no = fn.add_block("no")
    br = Br(yes, ConstantInt(I1, 1), no)
    br.operands[0] = _i32(1)
    _append(entry, br)
    IRBuilder(yes).ret()
    IRBuilder(no).ret()
    return m


def branch_to_foreign_block():
    m, fn = _fresh()
    _append(fn.add_block("entry"), Br(BasicBlock("foreign")))
    return m


def phi_incoming_mismatch():
    m, fn = _fresh()
    entry = fn.add_block("entry")
    nxt = fn.add_block("next")
    b = IRBuilder(entry)
    b.br(nxt)
    b.position_at_end(nxt)
    b.phi(I32, "p")
    b.ret()
    return m


def callee_not_in_module():
    m, fn = _fresh()
    alien = Function("alien", FunctionType(VOID, []))
    b = IRBuilder(fn.add_block("entry"))
    b.call(alien, [])
    b.ret()
    return m


def used_before_defined():
    m, fn = _fresh(ret=I32)
    bb = fn.add_block("entry")
    a = BinOp("add", _i32(1), _i32(1), "a")
    b2 = BinOp("add", a, a, "b")
    _append(bb, b2, a, Ret(b2))
    return m


def used_before_defined_unnamed():
    m, fn = _fresh(ret=I32)
    bb = fn.add_block("entry")
    a = BinOp("add", _i32(1), _i32(1))
    b2 = BinOp("mul", a, _i32(3), "b")
    _append(bb, b2, a, Ret(b2))
    return m


def mixed_order():
    """Several violations across two functions: per function, the
    def-before-use errors follow every other error, and functions
    report in module order."""
    m, fn = _fresh(ret=I32, params=[I32])
    g = Function("g", FunctionType(I32, []))
    m.add_function(g)
    bb = fn.add_block("entry")
    a = BinOp("add", fn.args[0], _i32(1), "a")
    b2 = BinOp("add", a, _i32(2), "b")
    dup = BinOp("add", _i32(5), _i32(6), "b")
    _append(bb, b2, a, dup, Ret(ConstantInt(I64, 0)))
    tail = fn.add_block("tail")
    _append(tail, Ret(UndefValue(I32, "hole")))
    _append(g.add_block("entry"), Ret())
    return m


CASES = [
    (no_terminator, ["@f:entry: block lacks a terminator"]),
    (block_parent_broken, ["@f:entry: block parent link broken"]),
    (inst_parent_broken, ["@f:entry[0] (ret): parent link broken"]),
    (terminator_not_last, [
        "@f:entry: block lacks a terminator",
        "@f:entry[0] (ret): terminator not last in block",
    ]),
    (phi_after_non_phi,
     ["@f:entry[1] (phi): phi after non-phi instruction"]),
    (void_named, ["@f:entry[0] (ret): void instruction has a name"]),
    (duplicate_name, ["@f:entry[1] (binop): duplicate value name %x"]),
    (unresolved_placeholder,
     ["@f:entry[0] (ret): unresolved placeholder %dangling"]),
    (foreign_argument, ["@f:entry[0] (ret): foreign argument %p"]),
    (operand_from_other_function,
     ["@f:entry[0] (ret): operand %v from another function"]),
    (bad_operand_kind, ["@f:entry[0] (ret): bad operand kind Value"]),
    (load_from_non_pointer, ["@f:entry[0] (load): load from non-pointer"]),
    (load_result_mismatch,
     ["@f:entry[0] (load): load result type mismatch"]),
    (store_mismatch, ["@f:entry[0] (store): store type mismatch"]),
    (ret_void_from_value_function,
     ["@f:entry[0] (ret): ret void from non-void function"]),
    (ret_type_mismatch,
     ["@f:entry[0] (ret): ret type i32, function returns i64"]),
    (branch_condition_not_i1,
     ["@f:entry[0] (br): branch condition is not i1"]),
    (branch_to_foreign_block,
     ["@f:entry[0] (br): branch to foreign block foreign"]),
    (phi_incoming_mismatch, [
        "@f:next[0] (phi): phi incoming blocks [] != predecessors "
        "['entry']",
    ]),
    (callee_not_in_module,
     ["@f:entry[0] (call): callee @alien not in module"]),
    (used_before_defined,
     ["@f:entry: %a used before defined in its own block",
      "@f:entry: %a used before defined in its own block"]),
    (used_before_defined_unnamed,
     ["@f:entry: %binop used before defined in its own block"]),
    (mixed_order, [
        "@f:entry[2] (binop): duplicate value name %b",
        "@f:entry[3] (ret): ret type i64, function returns i32",
        "@f:tail[0] (ret): unresolved placeholder %hole",
        "@f:entry: %a used before defined in its own block",
        "@g:entry[0] (ret): ret void from non-void function",
    ]),
]


@pytest.mark.parametrize("build, expected", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_verify_module_messages(build, expected):
    with pytest.raises(VerificationError) as info:
        verify_module(build())
    assert info.value.errors == expected


def test_definition_without_blocks():
    _, fn = _fresh()
    with pytest.raises(VerificationError) as info:
        verify_function(fn)
    assert info.value.errors == ["@f: definition has no blocks"]


def test_every_message_has_a_case():
    """The table covers each distinct message shape once or more."""
    shapes = {
        "lacks a terminator", "block parent link broken",
        ": parent link broken", "terminator not last", "phi after non-phi",
        "void instruction has a name", "duplicate value name",
        "unresolved placeholder", "foreign argument", "from another function",
        "bad operand kind", "load from non-pointer",
        "load result type mismatch", "store type mismatch", "ret void from",
        "ret type", "branch condition is not i1", "branch to foreign block",
        "phi incoming blocks", "not in module", "used before defined",
    }
    seen = " | ".join(msg for _, msgs in CASES for msg in msgs)
    assert [s for s in shapes if s not in seen] == []

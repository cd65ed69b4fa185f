"""Instruction constructor / invariant tests."""

import pytest

from repro.ir import (
    Alloca,
    ArrayType,
    BasicBlock,
    BinOp,
    Br,
    Call,
    Cast,
    ConstantInt,
    ConstantNull,
    F32,
    F64,
    FCmp,
    Function,
    FunctionType,
    Gep,
    I1,
    I8,
    I16,
    I32,
    I64,
    ICmp,
    InlineAsm,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
    UndefValue,
    VOID,
    ptr,
)
from repro.ir.instructions import BINOPS, CAST_OPS
from repro.ir.values import ConstantFloat


def iv(x, t=I32):
    return ConstantInt(t, x)


def pv(t=I32):
    return UndefValue(ptr(t), "p")


class TestMemoryInstructions:
    def test_alloca_result_is_pointer(self):
        a = Alloca(I64)
        assert a.type is ptr(I64)
        assert a.size_bytes == 8

    def test_alloca_array_size(self):
        assert Alloca(I32, count=10).size_bytes == 40

    def test_load_result_type_is_pointee(self):
        l = Load(pv(I16))
        assert l.type is I16
        assert l.access_size == 2

    def test_load_requires_pointer(self):
        with pytest.raises(TypeError):
            Load(iv(5))

    def test_store_type_check(self):
        Store(iv(5, I32), pv(I32))  # ok
        with pytest.raises(TypeError):
            Store(iv(5, I64), pv(I32))

    def test_store_is_void_with_access_size(self):
        s = Store(iv(1, I8), pv(I8))
        assert s.type is VOID
        assert s.access_size == 1

    def test_store_requires_pointer(self):
        with pytest.raises(TypeError):
            Store(iv(1), iv(2))

    def test_gep_requires_pointer_base(self):
        with pytest.raises(TypeError):
            Gep(ptr(I8), iv(1), iv(0, I64), 1)

    def test_gep_requires_int_index(self):
        with pytest.raises(TypeError):
            Gep(ptr(I8), pv(I8), pv(I8), 1)

    def test_gep_accessors(self):
        g = Gep(ptr(I32), pv(I32), iv(2, I64), 4, 8)
        assert g.scale == 4 and g.displacement == 8
        assert g.base is g.operands[0]
        assert g.index is g.operands[1]


class TestArithmetic:
    @pytest.mark.parametrize("op", [o for o in BINOPS if not o.startswith("f")])
    def test_int_binops_construct(self, op):
        b = BinOp(op, iv(1), iv(2))
        assert b.type is I32

    @pytest.mark.parametrize("op", ["fadd", "fsub", "fmul", "fdiv"])
    def test_float_binops_construct(self, op):
        b = BinOp(op, ConstantFloat(F64, 1.0), ConstantFloat(F64, 2.0))
        assert b.type is F64

    def test_binop_operand_type_mismatch(self):
        with pytest.raises(TypeError):
            BinOp("add", iv(1, I32), iv(2, I64))

    def test_float_op_on_ints_rejected(self):
        with pytest.raises(TypeError):
            BinOp("fadd", iv(1), iv(2))

    def test_int_op_on_floats_rejected(self):
        with pytest.raises(TypeError):
            BinOp("add", ConstantFloat(F32, 1.0), ConstantFloat(F32, 2.0))

    def test_unknown_binop(self):
        with pytest.raises(ValueError):
            BinOp("frob", iv(1), iv(2))

    def test_icmp_yields_i1(self):
        assert ICmp("slt", iv(1), iv(2)).type is I1

    def test_icmp_on_pointers(self):
        assert ICmp("eq", pv(I8), pv(I8)).type is I1

    def test_icmp_bad_predicate(self):
        with pytest.raises(ValueError):
            ICmp("lt", iv(1), iv(2))

    def test_icmp_mismatched_operands(self):
        with pytest.raises(TypeError):
            ICmp("eq", iv(1, I32), iv(1, I64))

    def test_fcmp(self):
        assert FCmp("olt", ConstantFloat(F64, 1.0), ConstantFloat(F64, 2.0)).type is I1
        with pytest.raises(ValueError):
            FCmp("slt", ConstantFloat(F64, 1.0), ConstantFloat(F64, 2.0))


class TestCasts:
    def test_trunc_must_narrow(self):
        Cast("trunc", iv(1, I64), I32)
        with pytest.raises(TypeError):
            Cast("trunc", iv(1, I32), I64)

    def test_ext_must_widen(self):
        Cast("zext", iv(1, I8), I32)
        Cast("sext", iv(1, I8), I32)
        with pytest.raises(TypeError):
            Cast("zext", iv(1, I32), I32)

    def test_bitcast_pointer_only(self):
        Cast("bitcast", pv(I32), ptr(I8))
        with pytest.raises(TypeError):
            Cast("bitcast", iv(1), I64)

    def test_ptr_int_conversions(self):
        Cast("ptrtoint", pv(I8), I64)
        Cast("inttoptr", iv(1, I64), ptr(I8))
        with pytest.raises(TypeError):
            Cast("ptrtoint", iv(1), I64)

    def test_float_conversions(self):
        Cast("sitofp", iv(1), F64)
        Cast("fptosi", ConstantFloat(F64, 1.0), I32)
        Cast("fpext", ConstantFloat(F32, 1.0), F64)
        Cast("fptrunc", ConstantFloat(F64, 1.0), F32)
        with pytest.raises(TypeError):
            Cast("fpext", ConstantFloat(F64, 1.0), F32)

    def test_unknown_cast(self):
        with pytest.raises(ValueError):
            Cast("reinterpret", iv(1), I64)

    @pytest.mark.parametrize("op", CAST_OPS)
    def test_all_cast_ops_have_checks(self, op):
        # Each op either constructs or raises TypeError; never KeyError.
        try:
            Cast(op, iv(1, I32), I64)
        except TypeError:
            pass


class TestControlFlow:
    def test_unconditional_branch(self):
        bb = BasicBlock("t")
        br = Br(bb)
        assert not br.is_conditional
        assert br.targets == [bb]
        assert br.condition is None

    def test_conditional_branch(self):
        a, b = BasicBlock("a"), BasicBlock("b")
        br = Br(a, ConstantInt(I1, 1), b)
        assert br.is_conditional
        assert br.targets == [a, b]

    def test_conditional_branch_needs_i1(self):
        with pytest.raises(TypeError):
            Br(BasicBlock("a"), iv(1), BasicBlock("b"))

    def test_conditional_branch_needs_false_target(self):
        with pytest.raises(ValueError):
            Br(BasicBlock("a"), ConstantInt(I1, 1))

    def test_switch(self):
        d, c1 = BasicBlock("d"), BasicBlock("c1")
        sw = Switch(iv(3), d, [(1, c1)])
        sw.add_case(2, c1)
        assert sw.default is d
        assert len(sw.targets) == 3

    def test_switch_requires_int(self):
        with pytest.raises(TypeError):
            Switch(pv(), BasicBlock("d"))

    def test_ret_void_and_value(self):
        assert Ret().value is None
        assert Ret(iv(1)).value == iv(1)
        assert Ret().targets == []

    def test_unreachable_is_terminator(self):
        assert Unreachable().is_terminator

    def test_phi_incoming_type_check(self):
        phi = Phi(I32)
        bb = BasicBlock("p")
        phi.add_incoming(iv(1), bb)
        with pytest.raises(TypeError):
            phi.add_incoming(iv(1, I64), bb)
        assert phi.incoming_for(bb) == iv(1)
        with pytest.raises(KeyError):
            phi.incoming_for(BasicBlock("q"))


class TestCall:
    def _fn(self, ret=VOID, params=(I32,), vararg=False):
        return Function("callee", FunctionType(ret, list(params), vararg))

    def test_call_result_type(self):
        fn = self._fn(ret=I64)
        c = Call(fn, [iv(5)])
        assert c.type is I64
        assert c.callee is fn

    def test_call_arity_checked(self):
        with pytest.raises(TypeError):
            Call(self._fn(), [])
        with pytest.raises(TypeError):
            Call(self._fn(), [iv(1), iv(2)])

    def test_call_arg_types_checked(self):
        with pytest.raises(TypeError):
            Call(self._fn(), [iv(1, I64)])

    def test_vararg_allows_extra(self):
        fn = self._fn(params=(I32,), vararg=True)
        Call(fn, [iv(1), iv(2, I64), iv(3, I64)])
        with pytest.raises(TypeError):
            Call(fn, [])

    def test_guard_flag_defaults_false(self):
        assert Call(self._fn(), [iv(1)]).is_guard is False


class TestMisc:
    def test_select_type_checks(self):
        s = Select(ConstantInt(I1, 1), iv(1), iv(2))
        assert s.type is I32
        with pytest.raises(TypeError):
            Select(iv(1), iv(1), iv(2))
        with pytest.raises(TypeError):
            Select(ConstantInt(I1, 0), iv(1), iv(1, I64))

    def test_inline_asm(self):
        a = InlineAsm("nop")
        assert a.asm_text == "nop"
        assert a.has_side_effects

"""Printer / parser round-trip and error tests."""

import pytest

from repro.ir import (
    ConstantInt,
    ConstantString,
    Function,
    FunctionType,
    GlobalVariable,
    I1,
    I8,
    I32,
    I64,
    IRBuilder,
    IRParseError,
    Module,
    StructType,
    VOID,
    parse_module,
    print_module,
    ptr,
    verify_module,
)


def roundtrip(m: Module) -> Module:
    text = print_module(m)
    m2 = parse_module(text)
    assert print_module(m2) == text, "canonical form is not a fixed point"
    return m2


def build_simple() -> Module:
    m = Module("rt")
    fn = Function("f", FunctionType(I64, [I64]), ["x"], linkage="exported")
    m.add_function(fn)
    b = IRBuilder(fn.add_block("entry"))
    y = b.add(fn.args[0], b.const_i64(10), "y")
    b.ret(y)
    return m


class TestRoundTrip:
    def test_simple_function(self):
        m2 = roundtrip(build_simple())
        verify_module(m2)
        assert "f" in m2.functions

    def test_metadata(self):
        m = build_simple()
        m.metadata["carat.guarded"] = True
        m.metadata["carat.guard_count"] = 42
        m.metadata["carat.compiler"] = "caratcc"
        m2 = roundtrip(m)
        assert m2.metadata["carat.guarded"] is True
        assert m2.metadata["carat.guard_count"] == 42
        assert m2.metadata["carat.compiler"] == "caratcc"

    def test_globals_and_initializers(self):
        m = Module("g")
        m.add_global(GlobalVariable(I32, "count", ConstantInt(I32, -3)))
        m.add_global(GlobalVariable(I64, "zero"))
        m.add_global(
            GlobalVariable(
                ConstantString(b"hi\x00").type, "msg",
                ConstantString(b"hi\x00"), is_const=True,
            )
        )
        m2 = roundtrip(m)
        assert m2.get_global("count").initializer.signed == -3
        assert m2.get_global("zero").initializer is None
        assert m2.get_global("msg").initializer.data == b"hi\x00"
        assert m2.get_global("msg").is_const

    def test_struct_types(self):
        m = Module("s")
        st = StructType("pair", [I32, ptr(I8)], ["a", "b"])
        m.add_struct(st)
        fn = Function("use", FunctionType(VOID, [ptr(st)]), ["p"])
        m.add_function(fn)
        b = IRBuilder(fn.add_block("entry"))
        b.ret()
        m2 = roundtrip(m)
        assert m2.structs["pair"].field_names == ("a", "b")

    def test_control_flow_with_phi(self):
        m = Module("cf")
        fn = Function("loop", FunctionType(I64, [I64]), ["n"])
        m.add_function(fn)
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        done = fn.add_block("done")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        i = b.phi(I64, "i")
        c = b.icmp("slt", i, fn.args[0], "c")
        b.cond_br(c, body, done)
        b.position_at_end(body)
        i2 = b.add(i, b.const_i64(1), "i2")
        b.br(header)
        b.position_at_end(done)
        b.ret(i)
        i.add_incoming(b.const_i64(0), entry)
        i.add_incoming(i2, body)
        verify_module(m)
        m2 = roundtrip(m)
        verify_module(m2)

    def test_switch_roundtrip(self):
        m = Module("sw")
        fn = Function("pick", FunctionType(I32, [I32]), ["x"])
        m.add_function(fn)
        entry = fn.add_block("entry")
        a = fn.add_block("a")
        d = fn.add_block("d")
        b = IRBuilder(entry)
        b.switch(fn.args[0], d, [(1, a), (2, a)])
        b.position_at_end(a)
        b.ret(b.const_i32(10))
        b.position_at_end(d)
        b.ret(b.const_i32(0))
        m2 = roundtrip(m)
        sw = m2.get_function("pick").entry.terminator
        assert [c for c, _ in sw.cases] == [1, 2]

    def test_calls_and_guard_marker(self):
        m = Module("calls")
        callee = m.declare_function("helper", FunctionType(I32, [I32]))
        guard = m.declare_function(
            "carat_guard", FunctionType(VOID, [ptr(I8), I64, I32])
        )
        fn = Function("main", FunctionType(I32, []), [])
        m.add_function(fn)
        b = IRBuilder(fn.add_block("entry"))
        p = b.alloca(I8)
        g = b.call(guard, [p, b.const_i64(1), b.const_i32(1)])
        g.is_guard = True
        r = b.call(callee, [b.const_i32(7)])
        b.ret(r)
        m2 = roundtrip(m)
        calls = [
            i for i in m2.get_function("main").instructions()
            if i.opcode == "call"
        ]
        assert calls[0].is_guard is True
        assert calls[1].is_guard is False

    def test_vararg_declaration(self):
        m = Module("va")
        m.declare_function("printk", FunctionType(I32, [ptr(I8)], True))
        m2 = roundtrip(m)
        assert m2.functions["printk"].function_type.vararg

    def test_select_cast_gep_roundtrip(self):
        m = Module("misc")
        fn = Function("mix", FunctionType(I64, [I64, ptr(I64)]), ["x", "p"])
        m.add_function(fn)
        b = IRBuilder(fn.add_block("entry"))
        c = b.icmp("ugt", fn.args[0], b.const_i64(5))
        s = b.select(c, fn.args[0], b.const_i64(0))
        t = b.cast("trunc", s, I32)
        w = b.cast("sext", t, I64)
        g = b.gep(ptr(I64), fn.args[1], w, 8, 16)
        v = b.load(g)
        b.ret(v)
        verify_module(roundtrip(m))

    @pytest.mark.parametrize("pred", ["one", "une"])
    def test_fcmp_predicate_roundtrip(self, pred):
        from repro.ir import F64

        m = Module("rt")
        fn = Function("f", FunctionType(I1, [F64, F64]), ["a", "b"])
        m.add_function(fn)
        b = IRBuilder(fn.add_block("entry"))
        b.ret(b.fcmp(pred, fn.args[0], fn.args[1], "c"))
        m2 = roundtrip(m)
        assert f"fcmp {pred} f64 %a, f64 %b" in print_module(m2)

    def test_inline_asm_roundtrip(self):
        m = Module("asm")
        fn = Function("bad", FunctionType(VOID, []), [])
        m.add_function(fn)
        b = IRBuilder(fn.add_block("entry"))
        b.inline_asm("mov %cr0, %rax")
        b.ret()
        m2 = roundtrip(m)
        asm = next(iter(m2.get_function("bad").instructions()))
        assert asm.asm_text == "mov %cr0, %rax"


class TestParseErrors:
    def test_unknown_opcode(self):
        with pytest.raises(IRParseError):
            parse_module(
                'module "m"\n\ndefine internal void @f() {\nentry:\n  frobnicate\n}\n'
            )

    def test_undefined_value(self):
        with pytest.raises(IRParseError):
            parse_module(
                'module "m"\n\ndefine internal i32 @f() {\nentry:\n  ret i32 %nope\n}\n'
            )

    def test_unknown_callee(self):
        with pytest.raises(IRParseError):
            parse_module(
                'module "m"\n\ndefine internal void @f() {\nentry:\n'
                "  call void @ghost()\n  ret void\n}\n"
            )

    def test_unknown_struct_type(self):
        with pytest.raises(IRParseError):
            parse_module('module "m"\n\n@g = internal global %missing zeroinit\n')

    def test_duplicate_value_name(self):
        with pytest.raises(IRParseError):
            parse_module(
                'module "m"\n\ndefine internal i32 @f() {\nentry:\n'
                "  %x = add i32 1, i32 2\n  %x = add i32 3, i32 4\n  ret i32 %x\n}\n"
            )

    def test_garbage_top_level(self):
        with pytest.raises(IRParseError):
            parse_module('module "m"\n\nwibble\n')

    def test_missing_module_header(self):
        with pytest.raises(IRParseError):
            parse_module("define internal void @f() { entry: ret void }")

"""Codegen diagnostics: the type errors a C front end must reject."""

import pytest

from repro.minicc import CParseError, CompileError, compile_source


def reject(src, match=None):
    with pytest.raises(CompileError, match=match):
        compile_source(src)


class TestDeclarations:
    def test_undefined_variable(self):
        reject("__export int f(void) { return x; }", "undefined variable")

    def test_undeclared_function(self):
        reject("__export int f(void) { return g(); }", "undeclared function")

    def test_redefined_variable_same_scope(self):
        reject("__export int f(void) { int x; int x; return 0; }", "redefinition")

    def test_shadowing_in_inner_scope_is_fine(self):
        compile_source("__export int f(void) { int x = 1; { int x = 2; } return x; }")

    def test_redefined_function(self):
        reject(
            "int f(void) { return 0; } int f(void) { return 1; }",
            "redefinition",
        )

    def test_conflicting_declaration(self):
        reject(
            "extern int f(int a); int f(void) { return 0; }",
            "conflicting",
        )

    def test_redefined_global(self):
        reject("int x; long x;", "redefinition")

    def test_unknown_struct(self):
        reject("__export int f(struct nope *p) { return 0; }", "unknown struct")

    def test_struct_by_value_param(self):
        reject(
            "struct s { int a; }; int f(struct s v) { return 0; }",
            "by pointer",
        )

    def test_struct_return(self):
        reject(
            "struct s { int a; }; struct s f(void) { }",
            "aggregates",
        )

    def test_void_variable(self):
        reject("__export int f(void) { void v; return 0; }", "void")

    def test_struct_containing_itself(self):
        reject("struct s { int a; struct s inner; };", "contains itself")

    def test_duplicate_struct_field(self):
        reject("struct s { int a; int a; };", "duplicate field")

    def test_extern_global_with_initializer(self):
        reject("extern int x = 5;", "extern global with initializer")

    def test_zero_length_array(self):
        reject("int xs[0];", "positive")


class TestExpressions:
    def test_assign_to_rvalue(self):
        reject("__export int f(void) { 1 = 2; return 0; }", "not an lvalue")

    def test_deref_non_pointer(self):
        reject("__export int f(int x) { return *x; }", "dereference")

    def test_deref_void_pointer(self):
        reject(
            "__export int f(void *p) { return *p; }",
            "void",
        )

    def test_index_non_pointer(self):
        reject("__export int f(int x) { return x[0]; }", "index")

    def test_member_of_non_struct(self):
        reject("__export int f(int x) { return x.field; }", "non-struct")

    def test_arrow_on_non_pointer(self):
        # `v->a` on a struct value: the base cannot even be used as a value.
        reject(
            "struct s { int a; }; __export int f(void) "
            "{ struct s v; return v->a; }",
            "struct",
        )

    def test_unknown_field(self):
        reject(
            "struct s { int a; }; __export int f(void) "
            "{ struct s v; return v.b; }",
            "no field",
        )

    def test_call_arity(self):
        reject(
            "static int g(int a) { return a; } "
            "__export int f(void) { return g(1, 2); }",
            "expects 1 args",
        )

    def test_implicit_pointer_conversion(self):
        reject(
            "__export int f(long *p) { int *q = p; return *q; }",
            "implicit pointer conversion",
        )

    def test_implicit_int_to_pointer(self):
        reject(
            "__export int f(long x) { int *p = x; return *p; }",
            "implicit int-to-pointer",
        )

    def test_void_pointer_converts_freely(self):
        compile_source(
            "__export int f(void *p) { int *q = p; void *r = q; return 0; }"
        )

    def test_pointer_plus_pointer(self):
        reject(
            "__export long f(int *a, int *b) { return (long)(a + b); }",
            "pointer arithmetic",
        )

    def test_subtract_unrelated_pointers(self):
        reject(
            "__export long f(int *a, long *b) { return a - b; }",
            "unrelated",
        )

    def test_negate_pointer(self):
        reject("__export long f(int *p) { return (long)-p; }", "negate")

    def test_break_outside_loop(self):
        reject("__export int f(void) { break; return 0; }", "break outside")

    def test_continue_outside_loop(self):
        reject("__export int f(void) { continue; return 0; }", "continue outside")

    def test_return_value_from_void(self):
        reject("__export void f(void) { return 1; }", "void function")

    def test_return_without_value(self):
        reject("__export int f(void) { return; }", "without value")

    def test_struct_as_value(self):
        reject(
            "struct s { int a; }; struct s g; "
            "__export int f(void) { g = g; return 0; }",
            "assign",
        )

    def test_switch_on_pointer(self):
        reject(
            "__export int f(int *p) { switch (p) { default: break; } return 0; }",
            "integer",
        )

    def test_duplicate_case(self):
        reject(
            "__export int f(int x) { switch (x) { case 1: break; case 1: break; } return 0; }",
            "duplicate case",
        )

    def test_string_into_non_char_array(self):
        reject('long xs[4] = "abc";', "char array")

    def test_pointer_global_nonzero_init(self):
        reject("int *p = 5;", "null")


class TestConstantDivision:
    """A constant division or remainder by zero is a diagnostic with a
    line, never a bare ZeroDivisionError."""

    @pytest.mark.parametrize("src, error, line", [
        ("enum { A = 1 / 0 };", CParseError, 1),
        ("int a[1/0];", CParseError, 1),
        ("enum {\n A = 7,\n B = A % (A - 7)\n};", CParseError, 3),
        ("static const long K = 1 / 0;", CompileError, 1),
        ("long x;\nint g = 5 % 0;", CompileError, 2),
    ])
    def test_division_by_zero(self, src, error, line):
        with pytest.raises(error, match="division by zero") as info:
            compile_source(src)
        assert info.value.line == line

    def test_enum_division_truncates_exactly(self):
        m = compile_source(
            "enum { A = -7 / 2, B = 7 % -2, C = 9223372036854775807 / 3,"
            " D = 9223372036854775807 % 3 };"
            "long a = A; long b = B; long c = C; long d = D;"
        )
        values = {n: m.globals[n].initializer.signed for n in "abcd"}
        assert values == {"a": -3, "b": 1, "c": 3074457345618258602, "d": 1}

    def test_global_initializer_division_truncates_exactly(self):
        m = compile_source(
            "long q = 9223372036854775807 / 3; long r = -9223372036854775807 % 10;"
        )
        assert m.globals["q"].initializer.signed == 3074457345618258602
        assert m.globals["r"].initializer.signed == -7

    def test_mixed_int_float_division_is_floating(self):
        m = compile_source(
            "double g = 7 / 2.0; double h = 7.0 / 2; long i = 7 / 2;"
        )
        assert m.globals["g"].initializer.value == 3.5
        assert m.globals["h"].initializer.value == 3.5
        assert m.globals["i"].initializer.signed == 3


class TestConstantFloatOperands:
    """Integer-only operators refuse a floating constant operand, with
    the messages a function body gives."""

    @pytest.mark.parametrize("src, match", [
        ("double g = 7.5 % 2;", "bad float operator '%'"),
        ("long g = 7.5 << 1;", "bad float operator '<<'"),
        ("long g = 1 >> 0.5;", "bad float operator '>>'"),
        ("long g = 7.5 & 1;", "bad float operator '&'"),
        ("long g = 2 | 7.5;", r"bad float operator '\|'"),
        ("long g = 7.5 ^ 1;", r"bad float operator '\^'"),
        ("long g = ~7.5;", "cannot complement double"),
    ])
    def test_integer_operator_on_float_constant(self, src, match):
        reject(src, match)

"""An independent spec for the IR's arithmetic.

``repro.ir.arith`` is the one definition of the IR's value rules.  Its
integer rules are expression text (``binop_src``, ``icmp_src``,
``cast_src``) that the module compiles into its own functions and the
compiled engine inlines into generated code.  The spec below is written
from scratch, not from that text: integers in pure modular arithmetic
(floor division corrected toward zero), floats as exact rationals
rounded once to the nearest IEEE single or double.  The integer rules
are checked in three places: the shared module, the peephole folder,
and the compiled engine running one hand-built function per operation
and width, which checks that the translator substitutes its operands
into the shared text correctly.  The float rules (binops, ``fcmp``, ``sitofp``, ``fptrunc``,
``fptosi``) are checked in the shared module and the compiled engine,
and C's conversions to unsigned types, which codegen lowers around
``fptosi``'s signed range, in compiled mini-C.

Values are unsigned bit patterns, as in the VM.  ``i1`` is the IR's
boolean: it has no negative range, so its signed view is its value.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.pipeline import CompileOptions, compile_module
from repro.ir import Function, FunctionType, IRBuilder, Module, arith
from repro.ir.instructions import BinOp, Cast, ICmp
from repro.ir.types import I1, FloatType, IntType
from repro.ir.values import ConstantInt
from repro.kernel import Kernel
from repro.kernel.module_loader import CompiledModule
from repro.passes import AttestationPass, PassManager
from repro.passes.peephole import _fold_binop, _fold_cast, _fold_icmp

WIDTHS = (1, 8, 16, 32, 64)
BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr",
          "udiv", "urem", "sdiv", "srem")
DIVISIONS = frozenset(("udiv", "urem", "sdiv", "srem"))
PREDICATES = ("eq", "ne", "ult", "ule", "ugt", "uge",
              "slt", "sle", "sgt", "sge")
CASTS = [("trunc", s, d) for s in WIDTHS for d in WIDTHS if d < s] + [
    (op, s, d) for op in ("zext", "sext") for s in WIDTHS for d in WIDTHS
    if d > s
]


# -- the spec ---------------------------------------------------------------


def modulus(w: int) -> int:
    return 2 ** w


def signed(x: int, w: int) -> int:
    if w > 1 and x >= modulus(w) // 2:
        return x - modulus(w)
    return x


def c_quotient(a: int, b: int) -> int:
    """C99 ``a / b``: floor division corrected toward zero."""
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def spec_binop(op: str, w: int, a: int, b: int) -> int:
    m = modulus(w)
    sa, sb = signed(a, w), signed(b, w)
    shift = b % w
    result = {
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "mul": lambda: a * b,
        "and": lambda: sum(2 ** i for i in range(w)
                           if (a >> i) & 1 and (b >> i) & 1),
        "or": lambda: sum(2 ** i for i in range(w)
                          if (a >> i) & 1 or (b >> i) & 1),
        "xor": lambda: sum(2 ** i for i in range(w)
                           if ((a >> i) & 1) != ((b >> i) & 1)),
        "shl": lambda: a * 2 ** shift,
        "lshr": lambda: a // 2 ** shift,
        "ashr": lambda: sa // 2 ** shift,
        "udiv": lambda: a // b,
        "urem": lambda: a - (a // b) * b,
        "sdiv": lambda: c_quotient(sa, sb),
        "srem": lambda: sa - c_quotient(sa, sb) * sb,
    }[op]()
    return result % m


def spec_icmp(pred: str, w: int, a: int, b: int) -> int:
    if pred[0] == "s":
        a, b = signed(a, w), signed(b, w)
    relation = pred[-2:]
    holds = {
        "eq": a == b, "ne": a != b, "lt": a < b,
        "le": a <= b, "gt": a > b, "ge": a >= b,
    }[relation]
    return 1 if holds else 0


def spec_cast(op: str, src: int, dst: int, v: int) -> int:
    if op == "sext":
        v = signed(v, src)
    return v % modulus(dst)


# -- values -----------------------------------------------------------------


def edges(w: int) -> list[int]:
    """0, 1, -1, and the signed minimum and maximum, as bit patterns."""
    m = modulus(w)
    return sorted({0, 1, m - 1, m // 2, m // 2 - 1})


def pattern(w: int):
    return st.one_of(st.sampled_from(edges(w)),
                     st.integers(0, modulus(w) - 1))


# -- the three implementations under test -----------------------------------


def _arg_fn(m: Module, name: str, ret, params) -> IRBuilder:
    fn = Function(name, FunctionType(ret, params),
                  [f"a{i}" for i in range(len(params))])
    m.add_function(fn)
    return IRBuilder(fn.add_block("entry"))


@functools.lru_cache(maxsize=None)
def engine():
    """A kernel on the compiled engine with one function per operation:
    ``<op>_i<w>(a, b)`` and ``<pred>_i<w>(a, b)`` return the result, and
    ``<cast>_i<src>_i<dst>(v)`` the converted value.  The arguments
    are opaque to the compiled engine, so every step runs the rule's
    text with the arguments substituted (division runs its closure)."""
    m = Module("arithspec")
    for w in WIDTHS:
        t = IntType(w)
        for op in BINOPS:
            b = _arg_fn(m, f"{op}_i{w}", t, [t, t])
            x, y = b.function.args
            b.ret(b.binop(op, x, y, "r"))
        for pred in PREDICATES:
            b = _arg_fn(m, f"{pred}_i{w}", I1, [t, t])
            x, y = b.function.args
            b.ret(b.icmp(pred, x, y, "r"))
    for op, s, d in CASTS:
        b = _arg_fn(m, f"{op}_i{s}_i{d}", IntType(d), [IntType(s)])
        b.ret(b.cast(op, b.function.args[0], IntType(d), "r"))
    PassManager([AttestationPass()]).run(m)
    kernel = Kernel(engine="compiled")
    loaded = kernel.insmod(CompiledModule(ir=m))
    return lambda name, *args: kernel.run_function(loaded, name, list(args))


def check_binop(op: str, w: int, a: int, b: int) -> None:
    t = IntType(w)
    folded = _fold_binop(BinOp(op, ConstantInt(t, a), ConstantInt(t, b)))
    if op in DIVISIONS and b == 0:
        with pytest.raises(ZeroDivisionError):
            arith.binop(op, t)(a, b)
        assert folded is None  # left to panic at run time
        return
    want = spec_binop(op, w, a, b)
    assert arith.binop(op, t)(a, b) == want, (op, w, a, b)
    assert folded.value == want, (op, w, a, b)
    assert engine()(f"{op}_i{w}", a, b) == want, (op, w, a, b)


def check_icmp(pred: str, w: int, a: int, b: int) -> None:
    t = IntType(w)
    want = spec_icmp(pred, w, a, b)
    assert arith.icmp(pred, t)(a, b) == want, (pred, w, a, b)
    folded = _fold_icmp(ICmp(pred, ConstantInt(t, a), ConstantInt(t, b)))
    assert folded.value == want, (pred, w, a, b)
    assert engine()(f"{pred}_i{w}", a, b) == want, (pred, w, a, b)


def check_cast(op: str, s: int, d: int, v: int) -> None:
    want = spec_cast(op, s, d, v)
    assert arith.cast(op, IntType(s), IntType(d))(v) == want, (op, s, d, v)
    folded = _fold_cast(Cast(op, ConstantInt(IntType(s), v), IntType(d)))
    assert folded.value == want, (op, s, d, v)
    assert engine()(f"{op}_i{s}_i{d}", v) == want, (op, s, d, v)


# -- edge values, exhaustively ----------------------------------------------


@pytest.mark.parametrize("w", WIDTHS)
def test_binops_on_edge_values(w):
    for op in BINOPS:
        for a in edges(w):
            for b in edges(w):
                check_binop(op, w, a, b)


@pytest.mark.parametrize("w", WIDTHS)
def test_icmp_on_edge_values(w):
    for pred in PREDICATES:
        for a in edges(w):
            for b in edges(w):
                check_icmp(pred, w, a, b)


def test_casts_on_edge_values():
    for op, s, d in CASTS:
        for v in edges(s):
            check_cast(op, s, d, v)


# -- random bit patterns ----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BINOPS), st.sampled_from(WIDTHS), st.data())
def test_binops_on_random_patterns(op, w, data):
    check_binop(op, w, data.draw(pattern(w)), data.draw(pattern(w)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PREDICATES), st.sampled_from(WIDTHS), st.data())
def test_icmp_on_random_patterns(pred, w, data):
    check_icmp(pred, w, data.draw(pattern(w)), data.draw(pattern(w)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CASTS), st.data())
def test_casts_on_random_patterns(cast, data):
    op, s, d = cast
    check_cast(op, s, d, data.draw(pattern(s)))


# -- division by a literal ----------------------------------------------------
#
# Division by a nonzero literal divisor is expression text too
# (``binop_src`` with ``divisor``); the engine inlines it and keeps the
# closure, with its zero handler, for any other divisor.


def literal_divisors(w: int) -> list[int]:
    """Nonzero divisors as bit patterns: +-1, +-2, +-3, -7, the signed
    minimum and maximum, and 512 (the block stack's sector size)."""
    m = modulus(w)
    return sorted({d % m for d in (1, -1, 2, -2, 3, -3, -7, m // 2,
                                   m // 2 - 1, 512)} - {0})


@functools.lru_cache(maxsize=None)
def literal_engine():
    """The compiled engine with ``<op>_i<w>_by<d>(a)``: ``a`` divided by
    the literal ``d`` (also ``d = 0``, which must keep the closure)."""
    m = Module("literaldiv")
    for w in WIDTHS:
        t = IntType(w)
        for op in sorted(DIVISIONS):
            for d in (0, *literal_divisors(w)):
                b = _arg_fn(m, f"{op}_i{w}_by{d}", t, [t])
                b.ret(b.binop(op, b.function.args[0], ConstantInt(t, d), "r"))
    PassManager([AttestationPass()]).run(m)
    kernel = Kernel(engine="compiled")
    loaded = kernel.insmod(CompiledModule(ir=m))
    return lambda name, *args: kernel.run_function(loaded, name, list(args))


@functools.lru_cache(maxsize=None)
def literal_rule(op: str, w: int, d: int):
    """``binop_src``'s text for ``op`` by the literal ``d``, compiled."""
    return eval(f"lambda a: {arith.binop_src(op, IntType(w), 'a', repr(d), d)}")


def check_literal_division(op: str, w: int, a: int, d: int) -> None:
    """The rule's text, and the engine if it has the divisor's function."""
    want = spec_binop(op, w, a, d)
    assert literal_rule(op, w, d)(a) == want, (op, w, a, d)
    if d in literal_divisors(w):
        assert literal_engine()(f"{op}_i{w}_by{d}", a) == want, (op, w, a, d)
    # An unnormalized dividend (arguments reach the VM unnormalized)
    # gives what the closure gives.
    for raw in (a - modulus(w), a + 3 * modulus(w)):
        assert literal_rule(op, w, d)(raw) == \
            arith.binop(op, IntType(w))(raw, d), (op, w, raw, d)


@pytest.mark.parametrize("w", WIDTHS)
def test_division_by_literals_on_edge_values(w):
    for op in sorted(DIVISIONS):
        for d in literal_divisors(w):
            for a in edges(w):  # includes the width's minimum dividend
                check_literal_division(op, w, a, d)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DIVISIONS)), st.sampled_from(WIDTHS), st.data())
def test_division_by_literals_on_random_patterns(op, w, data):
    d = data.draw(st.one_of(st.sampled_from(literal_divisors(w)),
                            st.integers(1, modulus(w) - 1)))
    check_literal_division(op, w, data.draw(pattern(w)), d)


@pytest.mark.parametrize("w", WIDTHS)
def test_zero_or_unknown_divisor_keeps_the_closure(w):
    t = IntType(w)
    for op in sorted(DIVISIONS):
        assert arith.binop_src(op, t, "a", "b") is None
        assert arith.binop_src(op, t, "a", "0", 0) is None
        # A raw literal of 2**w is zero only in the type's signed view.
        wide = arith.binop_src(op, t, "a", repr(modulus(w)), modulus(w))
        assert (wide is None) == (op[0] == "s")
        with pytest.raises(Exception, match=rf"divide error \({op} by zero\)"):
            literal_engine()(f"{op}_i{w}_by0", 5)


# -- floats: the spec ---------------------------------------------------------

FLOAT_BITS = (32, 64)
FLOAT_OPS = ("fadd", "fsub", "fmul", "fdiv")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge", "une")
INT_FLOAT_WIDTHS = (8, 16, 32, 64)
#: (significand bits, least normal exponent, greatest exponent)
FORMATS = {32: (24, -126, 127), 64: (53, -1022, 1023)}


def spec_round(x: Fraction, bits: int) -> float:
    """``x`` rounded to the nearest IEEE float of ``bits``, ties to the
    even significand, gradual underflow below the least normal, and an
    infinity at or beyond the midpoint above the largest finite."""
    mant, emin, emax = FORMATS[bits]
    if x == 0:
        return 0.0
    sign = -1.0 if x < 0 else 1.0
    x = abs(x)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** e > x:
        e -= 1  # now 2**e <= x < 2**(e+1)
    quantum = Fraction(2) ** (max(e, emin) - mant + 1)
    n, r = divmod(x, quantum)
    if 2 * r > quantum or (2 * r == quantum and n % 2):
        n += 1
    if n * quantum >= Fraction(2) ** (emax + 1):
        return sign * math.inf
    return sign * float(n * quantum)


def negative(v: float) -> bool:
    return str(v).startswith("-")


def spec_float_binop(op: str, bits: int, a: float, b: float) -> float:
    if a != a or b != b:
        return math.nan
    if op == "fsub":
        op, b = "fadd", -b
    if op == "fadd":
        if math.isinf(a) or math.isinf(b):
            if math.isinf(a) and math.isinf(b) and negative(a) != negative(b):
                return math.nan
            return a if math.isinf(a) else b
        exact = Fraction(a) + Fraction(b)
        if exact == 0:  # -0 only when both addends are -0
            return -0.0 if negative(a) and negative(b) else 0.0
        return spec_round(exact, bits)
    sign = -1.0 if negative(a) != negative(b) else 1.0
    if op == "fmul":
        if math.isinf(a) or math.isinf(b):
            return math.nan if a == 0 or b == 0 else sign * math.inf
        exact = Fraction(a) * Fraction(b)
    else:  # fdiv
        if math.isinf(a):
            return math.nan if math.isinf(b) else sign * math.inf
        if math.isinf(b):
            return sign * 0.0
        if b == 0:
            return math.nan if a == 0 else sign * math.inf
        exact = Fraction(a) / Fraction(b)
    if exact == 0:
        return sign * 0.0
    rounded = spec_round(exact, bits)
    return sign * abs(rounded)


def _rank(v: float) -> Fraction:
    """``v`` as an exact rational, infinities beyond every finite."""
    if math.isinf(v):
        return Fraction(-(2 ** 2000) if v < 0 else 2 ** 2000)
    return Fraction(v)


def spec_fcmp(pred: str, a: float, b: float) -> int:
    """An ordered predicate (``o...``) is false for a NaN operand and
    ``une`` (unordered or unequal) is true for one.  Both zeros are the
    rational 0, so they compare equal."""
    if a != a or b != b:
        return 1 if pred == "une" else 0
    x, y = _rank(a), _rank(b)
    holds = {
        "eq": x == y, "ne": x != y, "lt": x < y,
        "le": x <= y, "gt": x > y, "ge": x >= y,
    }[pred[1:]]
    return 1 if holds else 0


def spec_fptosi(v: float, w: int) -> int:
    """Truncation toward zero; NaN, infinities and truncations outside
    the signed range give the minimum signed value (its bit pattern)."""
    low, high = -(2 ** (w - 1)), 2 ** (w - 1) - 1
    if v == v and not math.isinf(v):
        i = int(Fraction(v))  # int() of a rational truncates toward zero
        if low <= i <= high:
            return i % modulus(w)
    return low % modulus(w)


def spec_sitofp(v: int, src: int, bits: int) -> float:
    return spec_round(Fraction(signed(v, src)), bits)


def spec_fptrunc(v: float) -> float:
    if v != v or math.isinf(v) or v == 0:
        return v
    return spec_round(Fraction(v), 32)


def same(got: float, want: float) -> bool:
    """Equal as IEEE data: NaN matches NaN, and zeros match by sign."""
    if want != want:
        return got != got
    return got == want and negative(got) == negative(want)


# -- floats: values -----------------------------------------------------------

_F64_EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 127.9, -128.9, 255.5,
    2.0 ** 24 + 1, 2.0 ** 31, -(2.0 ** 31) - 1, 2.0 ** 63 - 1024, 2.0 ** 63,
    -(2.0 ** 63), 1e30, 2.0 ** -149, 1e-310, 5e-324,
    3.4028234663852886e38, 3.5e38, 1e300, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]


def float_edges(bits: int) -> list[float]:
    """Signed zeros, small integers, the integer ranges' edges, the
    subnormal and overflow edges, infinities and NaN, each a value of
    the ``bits`` type."""
    if bits == 64:
        return list(_F64_EDGES)
    rounded = (spec_fptrunc(v) for v in _F64_EDGES)
    return list({repr(v): v for v in rounded}.values())  # keeps -0.0


def conversion_edges(w: int) -> tuple[list[int], list[float]]:
    """Integers at f32 rounding ties (one that rounds down to even, one
    up, one just past a tie) and floats around the signed range's ends,
    for conversions to and from ``i<w>``."""
    ties = []
    if w >= 32:
        half = 2 ** (w - 2 - 24)  # half an f32 step at 2**(w-2)
        ties = [2 ** (w - 2) + half, 2 ** (w - 2) + 3 * half,
                2 ** (w - 2) + half + 1]
    ints = [v % modulus(w) for t in ties for v in (t, -t)]
    floats = [float(sign * 2 ** (w - 1) + k)
              for sign in (1, -1) for k in (-1, -0.5, 0, 0.5, 1)]
    return ints, floats


def float_value(bits: int):
    return st.one_of(st.sampled_from(float_edges(bits)),
                     st.floats(width=bits))


# -- floats: the implementations under test -----------------------------------


@functools.lru_cache(maxsize=None)
def float_engine():
    """The compiled engine with ``<op>_f<bits>(a, b)``,
    ``<pred>_f<bits>(a, b)``, ``sitofp_i<w>_f<bits>(v)``,
    ``fptosi_f<bits>_i<w>(v)`` and ``fptrunc_f64_f32(v)``."""
    m = Module("floatspec")
    for bits in FLOAT_BITS:
        t = FloatType(bits)
        for op in FLOAT_OPS:
            b = _arg_fn(m, f"{op}_f{bits}", t, [t, t])
            x, y = b.function.args
            b.ret(b.binop(op, x, y, "r"))
        for pred in FCMP_PREDICATES:
            b = _arg_fn(m, f"{pred}_f{bits}", I1, [t, t])
            x, y = b.function.args
            b.ret(b.fcmp(pred, x, y, "r"))
        for w in INT_FLOAT_WIDTHS:
            b = _arg_fn(m, f"sitofp_i{w}_f{bits}", t, [IntType(w)])
            b.ret(b.cast("sitofp", b.function.args[0], t, "r"))
            b = _arg_fn(m, f"fptosi_f{bits}_i{w}", IntType(w), [t])
            b.ret(b.cast("fptosi", b.function.args[0], IntType(w), "r"))
    b = _arg_fn(m, "fptrunc_f64_f32", FloatType(32), [FloatType(64)])
    b.ret(b.cast("fptrunc", b.function.args[0], FloatType(32), "r"))
    PassManager([AttestationPass()]).run(m)
    kernel = Kernel(engine="compiled")
    loaded = kernel.insmod(CompiledModule(ir=m))
    return lambda name, *args: kernel.run_function(loaded, name, list(args))


UNSIGNED_TYPES = {8: "unsigned char", 16: "unsigned short",
                  32: "unsigned int", 64: "unsigned long"}


@functools.lru_cache(maxsize=None)
def unsigned_conversions():
    """Compiled mini-C: ``to_u<w>(z)`` returns ``(unsigned T)z``."""
    source = "\n".join(
        f"__export unsigned long to_u{w}(double z) {{ return ({ct})z; }}"
        for w, ct in UNSIGNED_TYPES.items()
    )
    kernel = Kernel(engine="compiled")
    loaded = kernel.insmod(compile_module(
        source, CompileOptions(module_name="unsignedspec", protect=False)))
    return lambda w, v: kernel.run_function(loaded, f"to_u{w}", [v])


def check_float_binop(op: str, bits: int, a: float, b: float) -> None:
    want = spec_float_binop(op, bits, a, b)
    got = arith.binop(op, FloatType(bits))(a, b)
    assert same(got, want), (op, bits, a, b, got, want)
    got = float_engine()(f"{op}_f{bits}", a, b)
    assert same(got, want), (op, bits, a, b, got, want)


def check_fcmp(pred: str, bits: int, a: float, b: float) -> None:
    want = spec_fcmp(pred, a, b)
    assert arith.fcmp(pred)(a, b) == want, (pred, a, b)
    assert float_engine()(f"{pred}_f{bits}", a, b) == want, (pred, a, b)


def check_sitofp(w: int, bits: int, v: int) -> None:
    want = spec_sitofp(v, w, bits)
    got = arith.cast("sitofp", IntType(w), FloatType(bits))(v)
    assert same(got, want), (w, bits, v, got, want)
    got = float_engine()(f"sitofp_i{w}_f{bits}", v)
    assert same(got, want), (w, bits, v, got, want)


def check_fptosi(bits: int, w: int, v: float) -> None:
    want = spec_fptosi(v, w)
    assert arith.cast("fptosi", FloatType(bits), IntType(w))(v) == want, \
        (bits, w, v)
    assert float_engine()(f"fptosi_f{bits}_i{w}", v) == want, (bits, w, v)


def check_fptrunc(v: float) -> None:
    want = spec_fptrunc(v)
    got = arith.cast("fptrunc", FloatType(64), FloatType(32))(v)
    assert same(got, want), (v, got, want)
    assert same(float_engine()("fptrunc_f64_f32", v), want), v


def check_unsigned(w: int, v: float) -> None:
    """C converts exactly any value whose truncation the type holds."""
    want = int(Fraction(v))
    assert 0 <= want < modulus(w)
    assert unsigned_conversions()(w, v) == want, (w, v)


def unsigned_edges(w: int) -> list[float]:
    """Zero, fractions, the same-width signed maximum and just above it,
    and the top of the range (the largest double below 2**64 for w=64)."""
    top = float(2 ** w - 1) if w < 64 else 2.0 ** 64 - 2048
    return [0.0, -0.0, 0.9, 2.0 ** (w - 1) - 1, 2.0 ** (w - 1),
            2.0 ** (w - 1) + 0.5, top, top - 1]


# -- floats: edge values, exhaustively ----------------------------------------


@pytest.mark.parametrize("bits", FLOAT_BITS)
def test_float_binops_on_edge_values(bits):
    for op in FLOAT_OPS:
        for a in float_edges(bits):
            for b in float_edges(bits):
                check_float_binop(op, bits, a, b)


@pytest.mark.parametrize("bits", FLOAT_BITS)
def test_fcmp_on_edge_values(bits):
    for pred in FCMP_PREDICATES:
        for a in float_edges(bits):
            for b in float_edges(bits):
                check_fcmp(pred, bits, a, b)


def test_float_casts_on_edge_values():
    for bits in FLOAT_BITS:
        for w in INT_FLOAT_WIDTHS:
            ties, near_range = conversion_edges(w)
            for v in edges(w) + ties:
                check_sitofp(w, bits, v)
            for v in float_edges(bits) + near_range:
                if bits == 32:
                    v = spec_fptrunc(v)
                check_fptosi(bits, w, v)
    for v in float_edges(64):
        check_fptrunc(v)


@pytest.mark.parametrize("w", INT_FLOAT_WIDTHS)
def test_unsigned_conversions_on_edge_values(w):
    for v in unsigned_edges(w):
        check_unsigned(w, v)


def test_division_by_signed_zero():
    """The sign of a zero divisor counts: 1/-0 is -inf."""
    for bits in FLOAT_BITS:
        check_float_binop("fdiv", bits, 1.0, -0.0)
        check_float_binop("fdiv", bits, -1.0, -0.0)
        check_float_binop("fdiv", bits, -1.0, 0.0)
    assert arith.binop("fdiv", FloatType(64))(1.0, -0.0) == -math.inf


def test_sitofp_rounds_once():
    """Rounding i64 to f32 through f64 would round twice: this value
    is just above a tie at f32 precision but ties at f64 precision."""
    v = 2 ** 60 + 2 ** 36 + 1
    assert arith.cast("sitofp", IntType(64), FloatType(32))(v) \
        == float(2 ** 60 + 2 ** 37)
    check_sitofp(64, 32, v)


# -- floats: random values ----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FLOAT_OPS), st.sampled_from(FLOAT_BITS), st.data())
def test_float_binops_on_random_values(op, bits, data):
    check_float_binop(op, bits, data.draw(float_value(bits)),
                      data.draw(float_value(bits)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FCMP_PREDICATES), st.sampled_from(FLOAT_BITS),
       st.data())
def test_fcmp_on_random_values(pred, bits, data):
    check_fcmp(pred, bits, data.draw(float_value(bits)),
               data.draw(float_value(bits)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INT_FLOAT_WIDTHS), st.sampled_from(FLOAT_BITS),
       st.data())
def test_float_casts_on_random_values(w, bits, data):
    check_sitofp(w, bits, data.draw(pattern(w)))
    check_fptosi(bits, w, data.draw(float_value(bits)))
    check_fptrunc(data.draw(float_value(64)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INT_FLOAT_WIDTHS), st.data())
def test_unsigned_conversions_on_random_values(w, data):
    whole = data.draw(st.integers(0, 2 ** w - 1))
    v = float(whole) + data.draw(st.floats(0.0, 0.99))
    if int(Fraction(v)) < modulus(w):  # a double near 2**64 may round up
        check_unsigned(w, v)

"""Float conversions are total and agree between the engines.

Rounding to f32 overflows to an infinity of the value's sign, as IEEE
round-to-nearest does, wherever it happens: an ``fptrunc``, f32
arithmetic, an f32 store, or an f32 global's initializer at insmod.
``fptosi`` of NaN, an infinity, or a value whose truncation is outside
the target's signed range gives the target's minimum signed value, x86
``cvttsd2si``'s "integer indefinite".  Both rules are defined once, in
``repro.ir.arith``.  A C conversion to an unsigned type is exact for
every value in that type's range: codegen lowers it around ``fptosi``'s
signed range, as x86 compilers do; so is a conversion from
``unsigned long`` (``sitofp`` of the halved value with its low bit kept
sticky, doubled, when the sign bit is set).  An integer constant
initializes a floating global as C assignment converts it.
"""

import math

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.ir import arith
from repro.ir.instructions import Cast
from repro.ir.types import F32, F64, I8, I32, I64
from repro.ir.values import ConstantFloat
from repro.kernel import Kernel

INF = math.inf
FLT_MAX = 3.4028234663852886e38
INT64_MIN = 1 << 63  # bit pattern
INT32_MIN = 1 << 31

SOURCE = """
__export double narrowed(double z) { float f = (float)(1e300 + z); return f; }
__export double f32_mul(double z) { float a = 3e38; float b = a * 10.0; return b; }
__export double f32_neg(double z) { float a = -3e38; float b = a * 10.0; return b; }
__export double stored(double z) { float f; f = z; return f; }
__export long to_long(double z) { return (long)z; }
__export int to_int(double z) { return (int)z; }
__export long inf_to_long(double z) { return (long)(1.0 / z); }
__export long nan_to_long(double z) { return (long)(z / z); }
__export unsigned long to_uchar(double z) { return (unsigned char)z; }
__export unsigned long to_ushort(double z) { return (unsigned short)z; }
__export unsigned long to_uint(double z) { return (unsigned int)z; }
__export unsigned long to_ulong(double z) { return (unsigned long)z; }
__export unsigned long f32_to_ulong(double z) { float f = z; return (unsigned long)f; }
__export unsigned long const_to_ulong(void) { return (unsigned long)1e19; }
__export double from_ulong(unsigned long x) { return (double)x; }
__export double f32_from_ulong(unsigned long x) { float f = x; return f; }
__export double from_uint(unsigned int x) { return x; }
"""

ENGINES = ["interp", "compiled"]


def load(engine, source):
    kernel = Kernel(engine=engine)
    loaded = kernel.insmod(compile_module(
        source, CompileOptions(module_name="floats", protect=False)))
    return lambda fn, *args: kernel.run_function(loaded, fn, list(args))


@pytest.fixture(scope="module", params=ENGINES)
def run(request):
    return load(request.param, SOURCE)


class TestRoundF32:
    def test_overflow_rounds_to_signed_infinity(self):
        assert arith.round_f32(1e300) == INF
        assert arith.round_f32(-1e300) == -INF
        assert arith.round_f32(3.5e38) == INF

    def test_largest_finite_and_its_rounding_interval(self):
        assert arith.round_f32(FLT_MAX) == FLT_MAX
        # Below the midpoint to the next (infinite) step: rounds down.
        assert arith.round_f32(FLT_MAX * (1 + 2 ** -25)) == FLT_MAX

    def test_special_values_pass_through(self):
        assert arith.round_f32(INF) == INF
        assert math.isnan(arith.round_f32(math.nan))
        assert arith.pack_f32(1e300) == arith.pack_f32(INF)


class TestFptosi:
    @pytest.mark.parametrize("v", [math.nan, INF, -INF, 1e30, -1e30,
                                   9.3e18, -9.3e18])
    def test_indefinite_is_min_signed(self, v):
        assert arith.fptosi(v, I64) == INT64_MIN

    @pytest.mark.parametrize("v, want", [
        (-2.9, (-2) & (2 ** 64 - 1)), (2.9, 2), (-0.5, 0),
        (-9.223372036854775e18, -9223372036854774784 & (2 ** 64 - 1)),
    ])
    def test_in_range_truncates_toward_zero(self, v, want):
        assert arith.fptosi(v, I64) == want

    def test_narrow_targets_use_their_own_range(self):
        assert arith.fptosi(3e9, I32) == INT32_MIN
        assert arith.fptosi(-129.0, I8) == 0x80
        assert arith.fptosi(-128.9, I8) == 0x80  # truncates to -128: in range
        assert arith.fptosi(127.9, I8) == 127


class TestEngines:
    """Each case raised ``OverflowError`` or ``ValueError`` out of
    ``Kernel.run_function`` (or out of insmod) before f32 rounding and
    ``fptosi`` were total."""

    def test_fptrunc_overflow(self, run):
        assert run("narrowed", 0.0) == INF

    def test_f32_arithmetic_overflow(self, run):
        assert run("f32_mul", 0.0) == INF
        assert run("f32_neg", 0.0) == -INF

    @pytest.mark.parametrize("engine", ENGINES)
    def test_f32_global_initializer_loads(self, engine):
        run = load(engine, "float g = 1e300;\n"
                           "__export double get(void) { return g; }")
        assert run("get") == INF

    def test_f32_store_overflow(self, run):
        assert run("stored", 1e300) == INF
        assert run("stored", 1.5) == 1.5

    def test_fptosi_of_infinity_and_nan(self, run):
        assert run("inf_to_long", 0.0) == INT64_MIN
        assert run("nan_to_long", 0.0) == INT64_MIN

    def test_fptosi_out_of_range(self, run):
        assert run("to_long", 1e30) == INT64_MIN
        assert run("to_int", 3e9) == INT32_MIN
        assert run("to_long", -7.9) == (-7) & (2 ** 64 - 1)


class TestUnsignedTargets:
    """A float converts exactly to any unsigned type that holds its
    truncation, including values above the same-width signed range."""

    @pytest.mark.parametrize("fn, v, want", [
        ("to_uchar", 200.0, 200),
        ("to_uchar", 255.9, 255),
        ("to_ushort", 65535.0, 65535),
        ("to_uint", 3e9, 3_000_000_000),
        ("to_uint", 4294967295.0, 2 ** 32 - 1),
        ("to_ulong", 5.9, 5),
        ("to_ulong", 1e19, 10 ** 19),
        ("to_ulong", 2.0 ** 63, 2 ** 63),
        ("to_ulong", 2.0 ** 64 - 2048, 2 ** 64 - 2048),
        ("to_ulong", 2.0 ** 63 - 1024, 2 ** 63 - 1024),
    ])
    def test_in_range_is_exact(self, run, fn, v, want):
        assert run(fn, v) == want

    def test_f32_source(self, run):
        assert run("f32_to_ulong", 1e19) == int(arith.round_f32(1e19))

    def test_constant_operand(self, run):
        assert run("const_to_ulong") == 10 ** 19


#: ``unsigned long`` values around the sign bit, the top of the range,
#: and rounding ties (and their neighbours) for f64 (spacing 2**11 above
#: 2**63) and f32 (spacing 2**40 there, 2**39 just below).
ULONG_VALUES = [
    0, 1, 5, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1,
    2 ** 63 + 1024, 2 ** 63 + 1025, 2 ** 63 + 3072, 2 ** 63 + 1023,
    2 ** 64 - 1024, 2 ** 64 - 3072, 2 ** 64 - 3073,
    2 ** 63 + 2 ** 39, 2 ** 63 + 2 ** 39 + 1, 2 ** 63 + 3 * 2 ** 39,
    2 ** 63 - 2 ** 38, 2 ** 63 - 2 ** 38 - 1,
]


class TestUnsignedSources:
    """An unsigned integer converts to float correctly rounded, like
    Python's ``float`` and ``arith.int_to_f32`` of the same value."""

    @pytest.mark.parametrize("x", ULONG_VALUES)
    def test_ulong_to_double(self, run, x):
        assert run("from_ulong", x) == float(x)

    @pytest.mark.parametrize("x", ULONG_VALUES)
    def test_ulong_to_float(self, run, x):
        assert run("f32_from_ulong", x) == arith.int_to_f32(x)

    def test_top_of_range_is_positive(self, run):
        assert run("from_ulong", 2 ** 64 - 1) == 2.0 ** 64
        assert run("from_ulong", 2 ** 63) == 2.0 ** 63

    def test_uint_source(self, run):
        assert run("from_uint", 2 ** 32 - 1) == 4294967295.0


class TestIntegerInitializerForFloatGlobal:
    SOURCE = """
    double g = 4;
    float h = 16777217;
    double u = 18446744073709551615UL;
    double n = -3;
    __export double get_g(void) { return g; }
    __export double get_h(void) { return h; }
    __export double get_u(void) { return u; }
    __export double get_n(void) { return n; }
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_converted_as_by_assignment(self, engine):
        run = load(engine, self.SOURCE)
        assert run("get_g") == 4.0
        assert run("get_h") == 16777216.0
        assert run("get_u") == 2.0 ** 64
        assert run("get_n") == -3.0

    def test_initializers_are_float_constants(self):
        ir = compile_module(self.SOURCE, CompileOptions(
            module_name="floats", protect=False)).ir
        values = {n: ir.globals[n].initializer.value for n in "ghun"}
        assert values == {"g": 4.0, "h": 16777216.0, "u": 2.0 ** 64,
                          "n": -3.0}


class TestNegation:
    """A floating ``-x`` flips the sign bit of every value, NaN included,
    as C does (gcc 12.2 -O0 on x86-64): codegen lowers it as a bitcast to
    the value's bits, an ``xor`` with the sign bit and a bitcast back, so
    ``-(+0.0)`` is -0.0, the value constant folding gives ``-0.0`` in an
    initializer."""

    SOURCE = """
    double folded = -0.0;
    double folded_nan = -(1e308 * 10.0 - 1e308 * 10.0);
    __export unsigned long neg(double z) {
        double r = -z; return *(unsigned long *)&r; }
    __export unsigned long negf(double z) {
        float f = z; float r = -f; return *(unsigned int *)&r; }
    __export unsigned long neg_bits(unsigned long b) {
        double x = *(double *)&b; double r = -x;
        return *(unsigned long *)&r; }
    __export unsigned long negf_bits(unsigned long b) {
        unsigned int w = b; float x = *(float *)&w; float r = -x;
        return *(unsigned int *)&r; }
    __export unsigned long get_folded(void) {
        return *(unsigned long *)&folded; }
    __export unsigned long get_folded_nan(void) {
        return *(unsigned long *)&folded_nan; }
    __export unsigned long neg_inf_diff(double z) {
        double i = z * 10.0; double r = -(i - i);
        return *(unsigned long *)&r; }
    """

    #: (f64 bits of x, of -x), (f32 bits of x, of -x), as gcc 12.2 -O0
    #: on x86-64 gives them: a quiet NaN, -0.0 and 1.0 each way.
    BIT_CASES = [
        ((0x7FF8000000000000, 0xFFF8000000000000), (0x7FC00000, 0xFFC00000)),
        ((0xFFF8000000000000, 0x7FF8000000000000), (0xFFC00000, 0x7FC00000)),
        ((0x0, 0x8000000000000000), (0x0, 0x80000000)),
        ((0x3FF0000000000000, 0xBFF0000000000000), (0x3F800000, 0xBF800000)),
    ]

    CASES = [  # argument, f64 bits of -x, f32 bits of -(float)x
        (0.0, 0x8000000000000000, 0x80000000),
        (-0.0, 0x0, 0x0),
        (INF, 0xFFF0000000000000, 0xFF800000),
        (-INF, 0x7FF0000000000000, 0x7F800000),
        (1.5, 0xBFF8000000000000, 0xBFC00000),
    ]

    @pytest.fixture(scope="class", params=ENGINES)
    def neg_run(self, request):
        return load(request.param, self.SOURCE)

    @pytest.mark.parametrize("z, f64_bits, f32_bits", CASES)
    def test_sign_bit_flips(self, neg_run, z, f64_bits, f32_bits):
        assert neg_run("neg", z) == f64_bits
        assert neg_run("negf", z) == f32_bits

    def test_nan_stays_nan(self, neg_run):
        # A NaN stays NaN, payload and all; only its sign bit flips.
        assert neg_run("neg", math.nan) == 0xFFF8000000000000
        assert neg_run("negf", math.nan) == 0xFFC00000

    @pytest.mark.parametrize("f64, f32", BIT_CASES)
    def test_sign_bit_flips_from_bit_patterns(self, neg_run, f64, f32):
        assert neg_run("neg_bits", f64[0]) == f64[1]
        assert neg_run("neg_bits", f64[1]) == f64[0]
        assert neg_run("negf_bits", f32[0]) == f32[1]
        assert neg_run("negf_bits", f32[1]) == f32[0]

    def test_agrees_with_constant_folding(self, neg_run):
        assert neg_run("get_folded") == neg_run("neg", 0.0)
        assert neg_run("get_folded_nan") == neg_run("neg_inf_diff", 1e308)

    def test_bitcast_is_a_float_and_its_bits(self):
        assert arith.cast("bitcast", F64, I64)(-0.0) == 1 << 63
        assert arith.cast("bitcast", I64, F64)(1 << 63) == 0.0
        assert arith.cast("bitcast", F32, I32)(1.0) == 0x3F800000
        assert arith.cast("bitcast", I32, F32)(0xBF800000) == -1.0
        with pytest.raises(TypeError, match="one width"):
            Cast("bitcast", ConstantFloat(F64, 1.0), I32)

    def test_engines_agree_bit_for_bit(self):
        runs = [load(engine, self.SOURCE) for engine in ENGINES]
        for fn in ("neg", "negf"):
            for z in (0.0, -0.0, INF, -INF, math.nan, 1.5):
                assert len({run(fn, z) for run in runs}) == 1
        for (x, _), (w, _) in self.BIT_CASES:
            assert len({run("neg_bits", x) for run in runs}) == 1
            assert len({run("negf_bits", w) for run in runs}) == 1


class TestNaNComparison:
    """A floating ``!=`` is the negation of ``==`` (C11 6.5.9), so it is
    true for a NaN operand (``fcmp une``), and a scalar tested as a
    condition is compared ``!= 0``.  The values are what gcc 12.2 -O0
    gives on x86-64."""

    SOURCE = """
    __export int self_compare(void) {
        double z = 0.0; double n = z / z;
        return (n != n) * 10 + (n == n);
    }
    __export int nan_is_true(double z) {
        double n = z / z;
        if (n) { return 1; }
        return 0;
    }
    __export int ne_ordered(double a, double b) { return a != b; }
    int folded_ne = (1.0 != 2.0) * 10 + (1.5 != 1.5);
    __export int get_folded_ne(void) { return folded_ne; }
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_is_unequal_to_itself(self, engine):
        assert load(engine, self.SOURCE)("self_compare") == 10

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_condition_takes_the_true_branch(self, engine):
        run = load(engine, self.SOURCE)
        assert run("nan_is_true", 0.0) == 1
        assert run("nan_is_true", 1.0) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ordered_operands(self, engine):
        run = load(engine, self.SOURCE)
        assert run("ne_ordered", 1.0, 1.0) == 0
        assert run("ne_ordered", 1.0, 2.0) == 1
        assert run("ne_ordered", 0.0, -0.0) == 0
        assert run("ne_ordered", math.nan, 1.0) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_constant_folding_agrees(self, engine):
        assert load(engine, self.SOURCE)("get_folded_ne") == 10

    def test_codegen_emits_une(self):
        ir = compile_module(self.SOURCE, CompileOptions(
            module_name="floats", protect=False)).ir
        preds = {i.pred for fn in ir.functions.values()
                 for i in fn.instructions() if i.opcode == "fcmp"}
        assert "une" in preds and "one" not in preds

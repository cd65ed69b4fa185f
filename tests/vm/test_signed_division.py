"""Signed division and remainder are exact at every magnitude.

C truncates the quotient toward zero and gives the remainder the
dividend's sign.  Computing that through a float quotient is wrong
above 2**53, and both engines and the constant folder used to share the
error, so the engine differential could not see it.  The reference here
is pure integer arithmetic.
"""

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.ir.instructions import Ret
from repro.ir.arith import trunc_divmod
from repro.kernel import Kernel

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)
INT32_MIN = -(1 << 31)


def c_divmod(a: int, b: int) -> tuple[int, int]:
    """C99 ``a / b`` and ``a % b``: floor division corrected toward zero."""
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q, a - q * b


CASES = [
    (INT64_MAX, 3),
    (INT64_MAX, -3),
    (INT64_MIN, 3),
    (INT64_MIN, -1),  # the quotient overflows and wraps to INT64_MIN
    (INT64_MIN + 1, 7),
    (-7, 2),
    (7, -2),
    (-7, -2),
    (7, 2),
    ((1 << 60) + 1, 1 << 30),
    (0, -5),
]

SOURCE = """
__export long q64(long a, long b) { return a / b; }
__export long r64(long a, long b) { return a % b; }
__export int q32(int a, int b) { return a / b; }
__export int r32(int a, int b) { return a % b; }
"""


def _wrap(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


@pytest.mark.parametrize("a, b", CASES)
def test_helper_matches_c(a, b):
    assert trunc_divmod(a, b) == c_divmod(a, b)


def test_documented_values():
    assert trunc_divmod(-7, 2) == (-3, -1)
    assert trunc_divmod(7, -2) == (-3, 1)
    q, r = trunc_divmod(INT64_MAX, 3)
    assert (q, r) == (3074457345618258602, 1)


@pytest.fixture(scope="module")
def engines():
    out = {}
    for engine in ("interp", "compiled"):
        kernel = Kernel(engine=engine)
        loaded = kernel.insmod(compile_module(
            SOURCE, CompileOptions(module_name="sdiv", protect=False)))
        out[engine] = (kernel, loaded)
    return out


@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("a, b", CASES)
def test_engines_divide_exactly_64(engines, engine, a, b):
    kernel, loaded = engines[engine]
    q, r = c_divmod(a, b)
    args = [_wrap(a, 64), _wrap(b, 64)]
    assert _wrap(kernel.run_function(loaded, "q64", args), 64) == _wrap(q, 64)
    assert _wrap(kernel.run_function(loaded, "r64", args), 64) == _wrap(r, 64)


@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("a, b", [(INT32_MIN, -1), (-7, 2), (7, -2),
                                  ((1 << 31) - 1, 3)])
def test_engines_divide_exactly_32(engines, engine, a, b):
    kernel, loaded = engines[engine]
    q, r = c_divmod(a, b)
    args = [_wrap(a, 32), _wrap(b, 32)]
    assert _wrap(kernel.run_function(loaded, "q32", args), 32) == _wrap(q, 32)
    assert _wrap(kernel.run_function(loaded, "r32", args), 32) == _wrap(r, 32)


@pytest.mark.parametrize("a, b", [(INT64_MAX, 3), (INT64_MIN, -1),
                                  (-7, 2), (7, -2)])
def test_peephole_folds_exactly(a, b):
    """Constant operands fold to the exact wrapped quotient/remainder."""
    # INT64_MIN has no literal form; spell it as an expression.
    lit = {INT64_MIN: "(-9223372036854775807L - 1)"}
    src = (
        f"__export long q(void) {{ long a = {lit.get(a, a)}; return a / {b}; }}"
        f"__export long r(void) {{ long a = {lit.get(a, a)}; return a % {b}; }}"
    )
    ir = compile_module(src, CompileOptions(module_name="fold", protect=False)).ir
    q, r = c_divmod(a, b)
    for name, want in (("q", q), ("r", r)):
        ret = ir.get_function(name).blocks[-1].instructions[-1]
        assert isinstance(ret, Ret)
        assert ret.value.value == _wrap(want, 64), name  # folded constant

"""IR value semantics: what each arithmetic instruction computes.

This module is the one definition of the IR's value rules: integer and
float binops, division by zero, ``icmp``/``fcmp`` predicates, casts,
and rounding to f32.  The reference interpreter evaluates through it
(so it stays the oracle), the peephole pass folds constants through
it, and the compiled engine binds its functions as per-site closures.
The compiled engine's inline integer templates are the only second
copy; ``tests/ir/test_arith_spec.py`` checks this module, the folder
and those templates against a spec written from scratch.

Values follow the VM's representation: an integer is a Python int
holding the *unsigned* bit pattern of its type, a pointer is its
address, a float is a Python float (an f32 value is one already
rounded to single precision).

Each rule is a function returning the function that computes one
operation at one type, so a compiled site binds it once and the
interpreter looks it up (memoised) per execution.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from typing import Callable

from .types import FloatType, IntType, IRType

_F32 = struct.Struct("<f")
_INF = math.inf


def trunc_divmod(a: int, b: int) -> tuple[int, int]:
    """C's signed ``a / b`` and ``a % b``: the quotient truncates toward
    zero and the remainder takes the dividend's sign.  Exact for any
    width (float division is not: it rounds above 2**53).  ``b`` must be
    nonzero; the caller wraps the results to its width."""
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q, a - q * b


def round_f32(x: float) -> float:
    """``x`` rounded to the nearest IEEE single.  Total: a value whose
    rounding overflows the largest finite single is infinity of its
    sign, as IEEE round-to-nearest gives."""
    try:
        return _F32.unpack(_F32.pack(x))[0]
    except OverflowError:  # struct refuses what rounds to +-inf
        return math.copysign(_INF, x)


def int_to_f32(i: int) -> float:
    """Integer ``i`` rounded once to the nearest IEEE single, ties to
    even.  (``round_f32(float(i))`` rounds twice above 2**53.)"""
    n = abs(i)
    if n <= 1 << 53:
        return round_f32(float(i))
    drop = n.bit_length() - 24
    q, r = divmod(n, 1 << drop)
    half = 1 << (drop - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return round_f32(math.copysign(float(q << drop), i))


def pack_f32(x: float) -> bytes:
    """The four little-endian bytes of ``x`` as an IEEE single."""
    return _F32.pack(round_f32(x))


def fptosi(v: float, t: IntType) -> int:
    """``fptosi``: truncate toward zero.  NaN, infinities, and values
    whose truncation falls outside ``t``'s signed range give ``t``'s
    minimum signed value, x86 ``cvttsd2si``'s "integer indefinite"."""
    if math.isfinite(v):
        i = int(v)
        if t.min_signed <= i <= t.max_signed:
            return t.wrap(i)
    return t.wrap(t.min_signed)


def _divide_by_zero():
    """The default zero-divisor handler: raise ``ZeroDivisionError``."""
    raise ZeroDivisionError("integer division by zero")


def _fdiv(a: float, b: float) -> float:
    """IEEE division: a nonzero dividend over a zero of either sign is
    an infinity whose sign is the product of the operands' signs; 0/0
    and NaN/0 are NaN."""
    if b == 0.0:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(_INF, a) * math.copysign(1.0, b)
    return a / b


_FLOAT_OPS = {
    "fadd": operator.add, "fsub": operator.sub,
    "fmul": operator.mul, "fdiv": _fdiv,
}


def make_binop(op: str, t: IRType,
               on_zero: Callable[[], object] = _divide_by_zero):
    """The function ``f(a, b)`` computing ``op`` on values of type ``t``.

    Shift counts are taken modulo the width.  A zero divisor of
    ``sdiv``/``udiv``/``srem``/``urem`` returns ``on_zero()``, which by
    default raises ``ZeroDivisionError``; ``fdiv`` by zero is an
    infinity whose sign is the product of the operands' signs, or NaN
    for ``0/0``."""
    if isinstance(t, FloatType):
        fn = _FLOAT_OPS.get(op)
        if fn is None:
            raise ValueError(f"bad float op {op}")
        if t.bits == 32:
            return lambda a, b, _f=fn: round_f32(_f(a, b))
        return fn
    if not isinstance(t, IntType):
        raise ValueError(f"bad binop type {t}")
    mask, bits, ts, wrap = t.max_unsigned, t.bits, t.to_signed, t.wrap
    if op == "add":
        return lambda a, b: (a + b) & mask
    if op == "sub":
        return lambda a, b: (a - b) & mask
    if op == "mul":
        return lambda a, b: (a * b) & mask
    if op == "and":
        return operator.and_
    if op == "or":
        return operator.or_
    if op == "xor":
        return operator.xor
    if op == "shl":
        return lambda a, b: (a << (b % bits)) & mask
    if op == "lshr":
        return lambda a, b: a >> (b % bits)
    if op == "ashr":
        return lambda a, b: wrap(ts(a) >> (b % bits))
    if op == "udiv":
        def udiv(a, b):
            if b == 0:
                return on_zero()
            return a // b
        return udiv
    if op == "urem":
        def urem(a, b):
            if b == 0:
                return on_zero()
            return a % b
        return urem
    if op == "sdiv":
        def sdiv(a, b):
            sa, sb = ts(a), ts(b)
            if sb == 0:
                return on_zero()
            return wrap(trunc_divmod(sa, sb)[0])
        return sdiv
    if op == "srem":
        def srem(a, b):
            sa, sb = ts(a), ts(b)
            if sb == 0:
                return on_zero()
            return wrap(trunc_divmod(sa, sb)[1])
        return srem
    raise ValueError(f"bad int op {op}")


_ORDER = {
    "eq": operator.eq, "ne": operator.ne,
    "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge,
}


@functools.lru_cache(maxsize=None)
def icmp(pred: str, t: IRType):
    """The function ``f(a, b) -> 0 | 1`` for ``icmp pred`` on ``t``.
    Signed predicates compare two's-complement values of an integer
    type; pointers always compare as unsigned addresses."""
    cmp = _ORDER[pred[-2:]]
    if pred[0] == "s" and isinstance(t, IntType):
        ts = t.to_signed
        return lambda a, b: 1 if cmp(ts(a), ts(b)) else 0
    return lambda a, b: 1 if cmp(a, b) else 0


@functools.lru_cache(maxsize=None)
def fcmp(pred: str):
    """The function ``f(a, b) -> 0 | 1`` for ``fcmp pred``.  Every
    predicate is ordered, so a NaN operand makes it false."""
    cmp = _ORDER[pred[1:]]
    return lambda a, b: 0 if a != a or b != b else 1 if cmp(a, b) else 0


@functools.lru_cache(maxsize=None)
def cast(op: str, src: IRType, dst: IRType):
    """The function ``f(v)`` converting a ``src`` value to ``dst``."""
    if op in ("bitcast", "inttoptr", "ptrtoint", "zext", "fpext"):
        return lambda v: v
    if op == "trunc":
        mask = dst.max_unsigned
        return lambda v: v & mask
    if op == "sext":
        ts, wrap = src.to_signed, dst.wrap
        return lambda v: wrap(ts(v))
    if op == "sitofp":
        ts = src.to_signed
        if dst.bits == 32:
            return lambda v: int_to_f32(ts(v))
        return lambda v: float(ts(v))
    if op == "fptosi":
        return lambda v: fptosi(v, dst)
    if op == "fptrunc":
        return round_f32
    raise ValueError(f"bad cast {op}")


#: :func:`make_binop` with the default zero handler, memoised for
#: callers that look the function up on every execution.
binop = functools.lru_cache(maxsize=None)(make_binop)


__all__ = ["binop", "cast", "fcmp", "fptosi", "icmp", "int_to_f32",
           "make_binop", "pack_f32", "round_f32", "trunc_divmod"]

"""IR value semantics: what each arithmetic instruction computes.

This module is the one definition of the IR's value rules: integer and
float binops, division by zero, ``icmp``/``fcmp`` predicates, casts,
and rounding to f32.  The reference interpreter evaluates through it
(so it stays the oracle), the peephole pass folds constants through
it, and the compiled engine binds its functions as per-site closures.
The integer rules are written once, as expression text: the compiled
engine inlines that text into the code it generates, and this module
compiles its own integer functions from it, so there is no second
copy.  Division has text only for a literal nonzero divisor; its
functions take the divisor at run time and call a zero handler.  ``tests/ir/test_arith_spec.py`` checks this module, the folder
and the compiled engine against a spec written from scratch.

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
from typing import Callable, Optional

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


# -- the integer rules, as expression text ----------------------------------
#
# Each ``*_src`` function returns the Python expression computing one
# operation on operand expressions, which must be atoms (a name or a
# literal).  The compiled engine inlines it; the functions below are
# compiled from it.


#: Integer binops other than division; ``sign`` is the type's sign bit,
#: so ``((x & mask) ^ sign) - sign`` is the signed view of ``x``.
_BINOP_SRC = {
    "add": "({a} + {b}) & {mask}",
    "sub": "({a} - {b}) & {mask}",
    "mul": "({a} * {b}) & {mask}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} % {bits})) & {mask}",
    "lshr": "{a} >> ({b} % {bits})",
    "ashr": "(((({a} & {mask}) ^ {sign}) - {sign}) >> ({b} % {bits})) & {mask}",
}


def binop_src(op: str, t: IRType, a: str, b: str,
              divisor: Optional[int] = None) -> Optional[str]:
    """The expression for integer ``op`` on ``a`` and ``b`` of type
    ``t``, or None for anything not an integer and for a division
    (``sdiv``/``udiv``/``srem``/``urem``) unless ``b`` is a literal of
    nonzero value ``divisor`` (a zero or unknown divisor needs the
    handler of :func:`make_binop`).  Shift counts are taken modulo the
    width."""
    if not isinstance(t, IntType):
        return None
    if op in _DIVISIONS:
        return None if divisor is None else _div_src(op, t, a, b, divisor)
    text = _BINOP_SRC.get(op)
    if text is None:
        return None
    if op == "ashr" and t.bits == 1:
        return f"({a} & 1) >> ({b} % 1)"  # i1 has no negative range
    return text.format(a=a, b=b, mask=t.max_unsigned, bits=t.bits,
                       sign=1 << (t.bits - 1))


_DIVISIONS = frozenset(("udiv", "urem", "sdiv", "srem"))


def _div_src(op: str, t: IntType, a: str, b: str, d: int) -> Optional[str]:
    """``op`` of ``a`` by the literal ``b``, whose value is ``d``: the
    rule of :func:`make_binop` for that one divisor, or None if it is
    zero.  A signed division splits on the dividend's sign bit: the
    magnitude of its signed view is ``a & mask`` when the bit is clear
    and ``-a & mask`` when it is set; the quotient's sign is the
    product of the signs, the remainder's the dividend's."""
    if op[0] == "u":
        return None if d == 0 else f"{a} {'//' if op == 'udiv' else '%'} {b}"
    sd = t.to_signed(d)
    if sd == 0:
        return None
    n, m = abs(sd), t.max_unsigned
    if t.bits == 1:  # i1 has no negative range
        return f"({a} & 1) {'//' if op == 'sdiv' else '%'} {n}"
    pos, neg = f"({a} & {m})", f"(-{a} & {m})"
    sign = 1 << (t.bits - 1)
    if op == "srem":
        return f"{pos} % {n} if not {a} & {sign} else -({neg} % {n}) & {m}"
    if sd > 0:
        return f"{pos} // {n} if not {a} & {sign} else -({neg} // {n}) & {m}"
    return f"-({pos} // {n}) & {m} if not {a} & {sign} else {neg} // {n}"


_CMP_SRC = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def icmp_cond(pred: str, t: IRType, a: str, b: str) -> str:
    """The Python comparison that holds when ``icmp pred`` on ``a`` and
    ``b`` of type ``t`` is 1.  Signed predicates compare two's-complement
    values of an integer type; pointers always compare as unsigned
    addresses."""
    c = _CMP_SRC[pred[-2:]]
    if pred[0] == "s" and isinstance(t, IntType):
        if t.bits > 1:
            # Flipping the sign bit of the masked pattern maps signed
            # order onto unsigned order.
            m, sign = t.max_unsigned, 1 << (t.bits - 1)
            return f"(({a} & {m}) ^ {sign}) {c} (({b} & {m}) ^ {sign})"
        return f"({a} & 1) {c} ({b} & 1)"  # i1: no negatives
    return f"{a} {c} {b}"


def icmp_src(pred: str, t: IRType, a: str, b: str) -> str:
    """The expression (0 or 1) for ``icmp pred`` (see :func:`icmp_cond`)."""
    return f"1 if {icmp_cond(pred, t, a, b)} else 0"


#: The casts that round or range-check a float: :func:`cast_src` has no
#: expression for them, and :func:`cast` builds them as closures.
FLOAT_CONVERSIONS = frozenset(("sitofp", "fptosi", "fptrunc"))


def cast_src(op: str, src: IRType, dst: IRType, v: str) -> Optional[str]:
    """The expression converting ``v`` from ``src`` to ``dst``, or None
    for a float conversion (:data:`FLOAT_CONVERSIONS`)."""
    if op in ("bitcast", "inttoptr", "ptrtoint", "zext", "fpext"):
        return v
    if op == "trunc":
        return f"{v} & {dst.max_unsigned}"
    if op == "sext":
        if src.bits > 1:
            sign = 1 << (src.bits - 1)
            return f"((({v} & {src.max_unsigned}) ^ {sign}) - {sign}) & {dst.max_unsigned}"
        return f"{v} & 1"  # i1 has no negative range: sext == zext
    if op in FLOAT_CONVERSIONS:
        return None
    raise ValueError(f"bad cast {op}")


def _function(params: str, src: str):
    """``lambda params: src``, compiled from a rule's expression text."""
    return eval(f"lambda {params}: {src}")


def make_binop(op: str, t: IRType,
               on_zero: Callable[[], object] = _divide_by_zero):
    """The function ``f(a, b)`` computing ``op`` on values of type ``t``.

    Integer operations other than division are :func:`binop_src`'s
    text.  A zero divisor of ``sdiv``/``udiv``/``srem``/``urem`` returns
    ``on_zero()``, which by default raises ``ZeroDivisionError``;
    ``fdiv`` by zero is an infinity whose sign is the product of the
    operands' signs, or NaN for ``0/0``."""
    if isinstance(t, FloatType):
        fn = _FLOAT_OPS.get(op)
        if fn is None:
            raise ValueError(f"bad float op {op}")
        if t.bits == 32:
            return lambda a, b, _f=fn: round_f32(_f(a, b))
        return fn
    if not isinstance(t, IntType):
        raise ValueError(f"bad binop type {t}")
    src = binop_src(op, t, "a", "b")
    if src is not None:
        return _function("a, b", src)
    ts, wrap = t.to_signed, t.wrap
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


@functools.lru_cache(maxsize=None)
def icmp(pred: str, t: IRType):
    """The function ``f(a, b) -> 0 | 1`` for ``icmp pred`` on ``t``:
    :func:`icmp_src`'s text."""
    return _function("a, b", icmp_src(pred, t, "a", "b"))


@functools.lru_cache(maxsize=None)
def fcmp(pred: str):
    """The function ``f(a, b) -> 0 | 1`` for ``fcmp pred``.  An ordered
    predicate (``o...``) is false for a NaN operand; ``une`` (unordered or
    unequal, C's ``!=``) is true for one."""
    if pred == "une":
        return _function("a, b", "1 if a != b else 0")
    c = _CMP_SRC[pred[1:]]
    return _function("a, b", f"0 if a != a or b != b else 1 if a {c} b else 0")


@functools.lru_cache(maxsize=None)
def cast(op: str, src: IRType, dst: IRType):
    """The function ``f(v)`` converting a ``src`` value to ``dst``:
    :func:`cast_src`'s text, or a closure for a float conversion."""
    text = cast_src(op, src, dst, "v")
    if text is not None:
        return _function("v", text)
    if op == "sitofp":
        ts = src.to_signed
        if dst.bits == 32:
            return lambda v: int_to_f32(ts(v))
        return lambda v: float(ts(v))
    if op == "fptosi":
        return lambda v: fptosi(v, dst)
    return round_f32  # fptrunc


#: :func:`make_binop` with the default zero handler, memoised for
#: callers that look the function up on every execution.
binop = functools.lru_cache(maxsize=None)(make_binop)


__all__ = ["FLOAT_CONVERSIONS", "binop", "binop_src", "cast", "cast_src",
           "fcmp", "fptosi", "icmp", "icmp_cond", "icmp_src", "int_to_f32", "make_binop",
           "pack_f32", "round_f32", "trunc_divmod"]

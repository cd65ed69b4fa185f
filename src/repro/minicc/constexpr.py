"""Compile-time constant expressions: one evaluator for every place C
requires one.

The parser folds array sizes, enum values and case labels with it as
soon as they are parsed (later declarations refer to the values), and
codegen folds global initializers with it.  Both hand it the same AST
that ``Parser.parse_conditional`` builds, so every site accepts the same
operators: literals, ``sizeof(type)``, casts to arithmetic types, unary
``- ~ !``, binary ``+ - * / % << >> & | ^``, comparisons, ``&& ||`` and
``?:``.  Each subexpression has its C type: a literal's is the one
codegen gives it, a cast's is its target, the operands of a binary
operator and of ``?:`` meet in the usual arithmetic conversions, a
shift takes its promoted left operand's type, and a comparison or
logical operator gives ``int`` 0 or 1 (so
``-1 < 0u`` is 0, and a floating comparison is ordered, as codegen
emits it).  Integer arithmetic wraps at that type through
:mod:`repro.ir.arith`, as the same expression computes at run time, so
``-1UL`` is 2**64 - 1 and ``0xFFFFFFFFu + 1`` is 0.  A conversion to an
integer type wraps and truncates a float toward zero, so
``(unsigned char)300`` is 44 and ``(int)-3.7`` is -3; one to ``float``
rounds to single precision once.  The result is the C value: negative
only for a signed type.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from . import cast as A
from . import ctypes_ as C
from ..ir import arith
from ..ir.types import FloatType, IntType

Constant = Union[int, float, bytes]

#: IR integer op per C operator, as (signed, unsigned).
_INT_OPS = {
    "+": ("add", "add"), "-": ("sub", "sub"), "*": ("mul", "mul"),
    "/": ("sdiv", "udiv"), "%": ("srem", "urem"),
    "<<": ("shl", "shl"), ">>": ("ashr", "lshr"),
    "&": ("and", "and"), "|": ("or", "or"), "^": ("xor", "xor"),
}
_FLOAT_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
#: Comparison predicate per C operator, without its signedness prefix.
_CMP_OPS = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt",
            ">=": "ge"}


def _to(v: Union[int, float], ct: C.CType) -> Union[int, float]:
    """Arithmetic value ``v`` converted to arithmetic type ``ct``; a
    float converted to an integer type must be finite."""
    if ct.is_float:
        if ct.bits == 32:
            return (arith.int_to_f32(v) if isinstance(v, int)
                    else arith.round_f32(v))
        return float(v)
    t = IntType(ct.bits)
    v = math.trunc(v)
    return t.to_signed(v) if ct.signed else t.wrap(v)


def fold(
    expr: A.Expr,
    error: Callable[[str, int], Exception],
    resolve: Callable[[A.TypeExpr], C.CType],
    to: Optional[C.CType] = None,
) -> Constant:
    """The value of constant expression ``expr``, converted to
    arithmetic type ``to`` as by assignment when one is given.

    ``error(message, line)`` builds the diagnostic to raise, and
    ``resolve(type_expr)`` gives the C type a type expression names (a
    ``sizeof`` operand or a cast target)."""

    def convert(v: Union[int, float], ct: C.CType, line: int):
        if not ct.is_arith:
            raise error(f"cast to {ct} is not an arithmetic constant", line)
        if ct.is_int and isinstance(v, float) and not math.isfinite(v):
            raise error(f"{v} has no value in {ct}", line)
        return _to(v, ct)

    def number(e: A.Expr) -> tuple[Union[int, float], C.CType]:
        v, ct = value(e)
        if ct is None:
            raise error("bad constant expression", e.line)
        return v, ct

    def value(e: A.Expr):
        if isinstance(e, A.IntLit):
            ct = C.int_literal_type(e)
            return _to(e.value, ct), ct
        if isinstance(e, A.FloatLit):
            return e.value, C.DOUBLE
        if isinstance(e, A.StringLit):
            return e.data, None
        if isinstance(e, A.NullLit):
            return 0, C.INT
        if isinstance(e, A.SizeofType):
            try:
                return resolve(e.target).sizeof(), C.ULONG
            except TypeError as exc:  # e.g. sizeof(void)
                raise error(str(exc), e.line) from None
        if isinstance(e, A.CastExpr):
            ct = resolve(e.target)
            return convert(number(e.operand)[0], ct, e.line), ct
        if isinstance(e, A.Unary) and e.op in ("-", "~", "!"):
            v, ct = number(e.operand)
            if e.op == "!":
                return int(not v), C.INT
            if ct.is_float:
                if e.op == "~":
                    raise error("cannot complement double", e.line)
                return -v, ct
            ct = C.promote(ct)
            t = IntType(ct.bits)
            ir_op = "sub" if e.op == "-" else "xor"
            ones = 0 if e.op == "-" else t.max_unsigned
            return _to(arith.binop(ir_op, t)(ones, t.wrap(v)), ct), ct
        if isinstance(e, A.Conditional):
            cond, _ = number(e.cond)
            (then, tct), (other, oct_) = number(e.then), number(e.other)
            ct = C.usual_arithmetic(tct, oct_)
            return _to(then if cond else other, ct), ct
        if isinstance(e, A.Binary):
            (a, act), (b, bct) = number(e.lhs), number(e.rhs)
            if e.op == "&&":
                return int(bool(a) and bool(b)), C.INT
            if e.op == "||":
                return int(bool(a) or bool(b)), C.INT
            if e.op in _CMP_OPS:
                ct, cmp = C.usual_arithmetic(act, bct), _CMP_OPS[e.op]
                if ct.is_float:
                    pred = ("u" if cmp == "ne" else "o") + cmp  # as codegen
                    return arith.fcmp(pred)(float(a), float(b)), C.INT
                t = IntType(ct.bits)
                if cmp not in ("eq", "ne"):
                    cmp = ("s" if ct.signed else "u") + cmp
                return arith.icmp(cmp, t)(t.wrap(a), t.wrap(b)), C.INT
            if e.op not in _INT_OPS:
                raise error(f"bad constant operator {e.op}", e.line)
            if e.op not in _FLOAT_OPS and (act.is_float or bct.is_float):
                raise error(f"bad float operator {e.op!r}", e.line)
            if e.op in ("/", "%") and b == 0:
                raise error("division by zero in constant expression", e.line)
            if e.op in ("<<", ">>"):
                ct = C.promote(act)
                if not 0 <= b < ct.bits:
                    raise error("shift count out of range in constant "
                                "expression", e.line)
            else:
                ct = C.usual_arithmetic(act, bct)
            if ct.is_float:
                fn = arith.binop(_FLOAT_OPS[e.op], FloatType(ct.bits))
                return fn(_to(a, ct), _to(b, ct)), ct
            t = IntType(ct.bits)
            fn = arith.binop(_INT_OPS[e.op][not ct.signed], t)
            return _to(fn(t.wrap(a), t.wrap(b)), ct), ct
        raise error("expression is not a compile-time constant", e.line)

    v, ct = value(expr)
    if to is None or ct is None:
        return v
    return convert(v, to, expr.line)


__all__ = ["Constant", "fold"]

"""Compile-time constant expressions: one evaluator for every place C
requires one.

The parser folds array sizes, enum values and case labels with it as
soon as they are parsed (later declarations refer to the values), and
codegen folds global initializers with it.  Both hand it the same AST
that ``Parser.parse_conditional`` builds, so every site accepts the same
operators: literals, ``sizeof(type)``, unary ``- ~ !``, binary
``+ - * / % << >> & | ^`` and ``?:``.  Integer arithmetic is exact
(the site wraps the result to its type); ``/`` and ``%`` truncate as C
does.
"""

from __future__ import annotations

import operator
from typing import Callable, Union

from . import cast as A
from ..ir.arith import trunc_divmod

Constant = Union[int, float, bytes]


def _div(x, y):
    """C's truncating quotient for integers, the floating quotient when
    either side is floating."""
    if isinstance(x, int) and isinstance(y, int):
        return trunc_divmod(x, y)[0]
    return x / y


_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _div, "%": lambda x, y: trunc_divmod(x, y)[1],
    "<<": operator.lshift, ">>": operator.rshift,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
}
_FLOAT_BINARY = frozenset(("+", "-", "*", "/"))

#: Widest shift a constant may make: the widest type is 64 bits, and an
#: unbounded count would let one line of source allocate without limit.
_MAX_SHIFT = 64


def fold(
    expr: A.Expr,
    error: Callable[[str, int], Exception],
    sizeof: Callable[[A.TypeExpr], int],
) -> Constant:
    """The value of constant expression ``expr``.

    ``error(message, line)`` builds the diagnostic to raise, and
    ``sizeof(type_expr)`` sizes a type the caller can lay out."""

    def number(e: A.Expr) -> Union[int, float]:
        v = value(e)
        if isinstance(v, bytes):
            raise error("bad constant expression", e.line)
        return v

    def value(e: A.Expr) -> Constant:
        if isinstance(e, (A.IntLit, A.FloatLit)):
            return e.value
        if isinstance(e, A.StringLit):
            return e.data
        if isinstance(e, A.NullLit):
            return 0
        if isinstance(e, A.SizeofType):
            try:
                return sizeof(e.target)
            except TypeError as exc:  # e.g. sizeof(void)
                raise error(str(exc), e.line) from None
        if isinstance(e, A.Unary) and e.op in ("-", "~", "!"):
            v = number(e.operand)
            if e.op == "-":
                return -v
            if e.op == "~":
                if isinstance(v, float):
                    raise error("cannot complement double", e.line)
                return ~v
            return int(not v)
        if isinstance(e, A.Conditional):
            cond, then, other = number(e.cond), number(e.then), number(e.other)
            v = then if cond else other
            if isinstance(then, float) or isinstance(other, float):
                return float(v)
            return v
        if isinstance(e, A.Binary):
            a, b = number(e.lhs), number(e.rhs)
            fn = _BINARY.get(e.op)
            if fn is None:
                raise error(f"bad constant operator {e.op}", e.line)
            if e.op not in _FLOAT_BINARY and (
                    isinstance(a, float) or isinstance(b, float)):
                raise error(f"bad float operator {e.op!r}", e.line)
            if e.op in ("/", "%") and b == 0:
                raise error("division by zero in constant expression", e.line)
            if e.op in ("<<", ">>") and not 0 <= b < _MAX_SHIFT:
                raise error("shift count out of range in constant expression",
                            e.line)
            try:
                return fn(a, b)
            except OverflowError:  # an int too large to convert to float
                raise error("constant expression overflows", e.line) from None
        raise error("expression is not a compile-time constant", e.line)

    return value(expr)


__all__ = ["Constant", "fold"]

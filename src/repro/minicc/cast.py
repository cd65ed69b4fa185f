"""AST node definitions for mini-C.

Nodes are plain dataclass-style containers; all semantic analysis lives in
the code generator (:mod:`repro.minicc.codegen`), which type-checks while
lowering, the way a one-pass C compiler front end does.
"""

from __future__ import annotations

from typing import Optional, Sequence


class Node:
    """Base AST node carrying a source line for diagnostics."""

    __slots__ = ("line",)

    def __init__(self, line: int):
        self.line = line


# ---------------------------------------------------------------------------
# Type expressions (syntactic; resolved against struct defs during codegen)
# ---------------------------------------------------------------------------


class TypeExpr(Node):
    __slots__ = ()


class NamedType(TypeExpr):
    """``int``, ``unsigned long``, ``void`` ... — a base-type spelling."""

    __slots__ = ("name", "unsigned")

    def __init__(self, name: str, unsigned: bool, line: int):
        super().__init__(line)
        self.name = name
        self.unsigned = unsigned


class StructRef(TypeExpr):
    """``struct Name`` used as a type."""

    __slots__ = ("name",)

    def __init__(self, name: str, line: int):
        super().__init__(line)
        self.name = name


class PointerTo(TypeExpr):
    __slots__ = ("inner",)

    def __init__(self, inner: TypeExpr, line: int):
        super().__init__(line)
        self.inner = inner


class ArrayOf(TypeExpr):
    __slots__ = ("inner", "count")

    def __init__(self, inner: TypeExpr, count: int, line: int):
        super().__init__(line)
        self.inner = inner
        self.count = count


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value", "is_long", "is_unsigned", "is_decimal")

    def __init__(self, value: int, line: int, is_long: bool = False,
                 is_unsigned: bool = False, is_decimal: bool = True):
        super().__init__(line)
        self.value = value
        self.is_long = is_long
        self.is_unsigned = is_unsigned
        #: False when written in octal or hexadecimal, which widens the
        #: candidate types.
        self.is_decimal = is_decimal


class FloatLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, line: int):
        super().__init__(line)
        self.value = value


class StringLit(Expr):
    __slots__ = ("data",)

    def __init__(self, data: bytes, line: int):
        super().__init__(line)
        self.data = data


class NullLit(Expr):
    __slots__ = ()


class Ident(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int):
        super().__init__(line)
        self.name = name


class Unary(Expr):
    """``op operand`` where op in ``! ~ - * & ++ -- post++ post--``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, line: int):
        super().__init__(line)
        self.op = op
        self.operand = operand


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int):
        super().__init__(line)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Assign(Expr):
    """``lhs op rhs`` where op in ``= += -= *= /= %= &= |= ^= <<= >>=``."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int):
        super().__init__(line)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Conditional(Expr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr, line: int):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.other = other


class CastExpr(Expr):
    __slots__ = ("target", "operand")

    def __init__(self, target: TypeExpr, operand: Expr, line: int):
        super().__init__(line)
        self.target = target
        self.operand = operand


class SizeofType(Expr):
    __slots__ = ("target",)

    def __init__(self, target: TypeExpr, line: int):
        super().__init__(line)
        self.target = target


class SizeofExpr(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr, line: int):
        super().__init__(line)
        self.operand = operand


class CallExpr(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr], line: int):
        super().__init__(line)
        self.name = name
        self.args = list(args)


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr, line: int):
        super().__init__(line)
        self.base = base
        self.index = index


class Member(Expr):
    """``base.field`` (arrow=False) or ``base->field`` (arrow=True)."""

    __slots__ = ("base", "field", "arrow")

    def __init__(self, base: Expr, field: str, arrow: bool, line: int):
        super().__init__(line)
        self.base = base
        self.field = field
        self.arrow = arrow


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("statements",)

    def __init__(self, statements: Sequence[Stmt], line: int):
        super().__init__(line)
        self.statements = list(statements)


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, line: int):
        super().__init__(line)
        self.expr = expr


class LocalDecl(Stmt):
    __slots__ = ("type", "name", "init")

    def __init__(self, type: TypeExpr, name: str, init: Optional[Expr], line: int):
        super().__init__(line)
        self.type = type
        self.name = name
        self.init = init


class If(Stmt):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Stmt, other: Optional[Stmt], line: int):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.other = other


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, line: int):
        super().__init__(line)
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    __slots__ = ("body", "cond")

    def __init__(self, body: Stmt, cond: Expr, line: int):
        super().__init__(line)
        self.body = body
        self.cond = cond


class For(Stmt):
    __slots__ = ("init", "cond", "step", "body")

    def __init__(
        self,
        init: Optional[Stmt],
        cond: Optional[Expr],
        step: Optional[Expr],
        body: Stmt,
        line: int,
    ):
        super().__init__(line)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr], line: int):
        super().__init__(line)
        self.value = value


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


class SwitchCase:
    """One ``case``/``default`` arm: labels plus body statements.

    ``values`` is empty for ``default``.  C fallthrough is preserved: a
    case whose body does not break falls into the next arm.
    """

    __slots__ = ("values", "body", "is_default", "line")

    def __init__(self, values: list[int], body: list[Stmt], is_default: bool, line: int):
        self.values = values
        self.body = body
        self.is_default = is_default
        self.line = line


class SwitchStmt(Stmt):
    __slots__ = ("value", "cases")

    def __init__(self, value: Expr, cases: list[SwitchCase], line: int):
        super().__init__(line)
        self.value = value
        self.cases = cases


class AsmStmt(Stmt):
    """``__asm__("...");`` — exists to exercise the attestation path."""

    __slots__ = ("text",)

    def __init__(self, text: str, line: int):
        super().__init__(line)
        self.text = text


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


class StructDef(Node):
    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: list[tuple[TypeExpr, str]], line: int):
        super().__init__(line)
        self.name = name
        self.fields = fields


class EnumDef(Node):
    __slots__ = ("constants",)

    def __init__(self, constants: list[tuple[str, int]], line: int):
        super().__init__(line)
        self.constants = constants


class GlobalDecl(Node):
    __slots__ = ("type", "name", "init", "is_static", "is_extern", "is_const",
                 "is_export")

    def __init__(
        self,
        type: TypeExpr,
        name: str,
        init: Optional[Expr],
        is_static: bool,
        is_extern: bool,
        is_const: bool,
        line: int,
        is_export: bool = False,
    ):
        super().__init__(line)
        self.type = type
        self.name = name
        self.init = init
        self.is_static = is_static
        self.is_extern = is_extern
        self.is_const = is_const
        self.is_export = is_export


class Param:
    __slots__ = ("type", "name", "line")

    def __init__(self, type: TypeExpr, name: str, line: int):
        self.type = type
        self.name = name
        self.line = line


class FunctionDef(Node):
    """A function definition or (body is None) declaration."""

    __slots__ = ("ret", "name", "params", "body", "is_static", "is_extern",
                 "is_export", "vararg")

    def __init__(
        self,
        ret: TypeExpr,
        name: str,
        params: list[Param],
        body: Optional[Block],
        is_static: bool,
        is_extern: bool,
        is_export: bool,
        vararg: bool,
        line: int,
    ):
        super().__init__(line)
        self.ret = ret
        self.name = name
        self.params = params
        self.body = body
        self.is_static = is_static
        self.is_extern = is_extern
        self.is_export = is_export
        self.vararg = vararg


class TranslationUnit(Node):
    __slots__ = ("items",)

    def __init__(self, items: list[Node]):
        super().__init__(1)
        self.items = items

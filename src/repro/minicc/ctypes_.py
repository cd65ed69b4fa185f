"""C-level type model for mini-C and its mapping onto IR types.

The key design rule: **pointers are materialized as ``i64`` in memory**
(globals, struct fields, array elements, and stack slots all store
addresses as 64-bit integers), while SSA values carry typed pointers.
This sidesteps recursive struct types (``struct foo { struct foo *next; }``)
without weakening the IR's typed loads/stores — every load still knows its
access width, which is all the guard pass needs (paper §3.1: the guard
receives ``(addr, size, flags)``).
"""

from __future__ import annotations

from typing import Callable, Optional

from . import cast as A
from ..ir import types as irt


class CType:
    """A C type: void, integer, float, pointer, array, or struct."""

    __slots__ = ("kind", "bits", "signed", "pointee", "element", "count",
                 "name", "fields", "_ir_struct")

    def __init__(self, kind: str, **kw):
        self.kind = kind
        self.bits: int = kw.get("bits", 0)
        self.signed: bool = kw.get("signed", True)
        self.pointee: Optional[CType] = kw.get("pointee")
        self.element: Optional[CType] = kw.get("element")
        self.count: int = kw.get("count", 0)
        self.name: str = kw.get("name", "")
        self.fields: list[tuple[str, CType]] = kw.get("fields", [])
        self._ir_struct: Optional[irt.StructType] = kw.get("ir_struct")

    # -- predicates ----------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return self.kind == "void"

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_ptr(self) -> bool:
        return self.kind == "ptr"

    @property
    def is_array(self) -> bool:
        return self.kind == "array"

    @property
    def is_struct(self) -> bool:
        return self.kind == "struct"

    @property
    def is_arith(self) -> bool:
        return self.kind in ("int", "float")

    @property
    def is_scalar(self) -> bool:
        return self.kind in ("int", "float", "ptr")

    # -- layout ----------------------------------------------------------------

    def memory_type(self) -> irt.IRType:
        """The IR type of this C type *as stored in memory*."""
        if self.kind == "int":
            return irt.IntType(self.bits)
        if self.kind == "float":
            return irt.FloatType(self.bits)
        if self.kind == "ptr":
            return irt.I64
        if self.kind == "array":
            assert self.element is not None
            return irt.ArrayType(self.element.memory_type(), self.count)
        if self.kind == "struct":
            if self._ir_struct is None:
                raise TypeError(f"struct {self.name} is incomplete")
            return self._ir_struct
        raise TypeError(f"{self} has no memory representation")

    def value_type(self) -> irt.IRType:
        """The IR type of this C type *as an SSA value*."""
        if self.kind == "ptr":
            assert self.pointee is not None
            if self.pointee.is_void:
                return irt.I8PTR
            return irt.PointerType(self.pointee.memory_type())
        if self.kind == "void":
            return irt.VOID
        return self.memory_type()

    def sizeof(self) -> int:
        return self.memory_type().size_bytes()

    # -- struct helpers -----------------------------------------------------------

    def field(self, name: str) -> tuple[int, "CType"]:
        """(field index, field CType); raises KeyError when absent."""
        for i, (fname, ftype) in enumerate(self.fields):
            if fname == name:
                return i, ftype
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def field_offset(self, index: int) -> int:
        if self._ir_struct is None:
            raise TypeError(f"struct {self.name} is incomplete")
        return self._ir_struct.field_offset(index)

    def complete_struct(self) -> None:
        """Compute the IR layout once all fields are known."""
        self._ir_struct = irt.StructType(
            self.name,
            [f.memory_type() for _, f in self.fields],
            [n for n, _ in self.fields],
        )

    # -- identity -------------------------------------------------------------------

    def same(self, other: "CType") -> bool:
        """Structural type equality (used for call/assign checking)."""
        if self.kind != other.kind:
            return False
        if self.kind == "int":
            return self.bits == other.bits and self.signed == other.signed
        if self.kind == "float":
            return self.bits == other.bits
        if self.kind == "ptr":
            assert self.pointee is not None and other.pointee is not None
            return self.pointee.same(other.pointee)
        if self.kind == "array":
            assert self.element is not None and other.element is not None
            return self.count == other.count and self.element.same(other.element)
        if self.kind == "struct":
            return self.name == other.name
        return True  # void

    def __str__(self) -> str:
        if self.kind == "int":
            base = {8: "char", 16: "short", 32: "int", 64: "long"}[self.bits]
            return base if self.signed else f"unsigned {base}"
        if self.kind == "float":
            return "float" if self.bits == 32 else "double"
        if self.kind == "ptr":
            return f"{self.pointee}*"
        if self.kind == "array":
            return f"{self.element}[{self.count}]"
        if self.kind == "struct":
            return f"struct {self.name}"
        return "void"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CType {self}>"


# Canonical scalars.
VOID = CType("void")
CHAR = CType("int", bits=8, signed=True)
UCHAR = CType("int", bits=8, signed=False)
SHORT = CType("int", bits=16, signed=True)
USHORT = CType("int", bits=16, signed=False)
INT = CType("int", bits=32, signed=True)
UINT = CType("int", bits=32, signed=False)
LONG = CType("int", bits=64, signed=True)
ULONG = CType("int", bits=64, signed=False)
FLOAT = CType("float", bits=32)
DOUBLE = CType("float", bits=64)
BOOL_RESULT = INT  # C comparison/logical results are int


def pointer_to(ct: CType) -> CType:
    return CType("ptr", pointee=ct)


def array_of(ct: CType, count: int) -> CType:
    return CType("array", element=ct, count=count)


VOID_PTR = pointer_to(VOID)
CHAR_PTR = pointer_to(CHAR)

_NAMED = {
    ("void", False): VOID,
    ("char", False): CHAR,
    ("char", True): UCHAR,
    ("short", False): SHORT,
    ("short", True): USHORT,
    ("int", False): INT,
    ("int", True): UINT,
    ("long", False): LONG,
    ("long", True): ULONG,
    ("float", False): FLOAT,
    ("double", False): DOUBLE,
}


def named_type(name: str, unsigned: bool) -> CType:
    try:
        return _NAMED[(name, unsigned)]
    except KeyError:
        raise TypeError(f"unknown type {'unsigned ' if unsigned else ''}{name}")


def resolve(
    te: "A.TypeExpr",
    struct: Callable[[str, int], CType],
    error: Callable[[str, int], Exception],
) -> CType:
    """The C type a type expression names.  ``struct(name, line)`` looks
    a struct up (raising for an unknown one), and ``error(message,
    line)`` builds the diagnostic for a bad type."""
    if isinstance(te, A.NamedType):
        try:
            return named_type(te.name, te.unsigned)
        except TypeError as e:
            raise error(str(e), te.line) from None
    if isinstance(te, A.StructRef):
        return struct(te.name, te.line)
    if isinstance(te, A.PointerTo):
        return pointer_to(resolve(te.inner, struct, error))
    if isinstance(te, A.ArrayOf):
        if te.count <= 0:
            raise error("array size must be positive", te.line)
        return array_of(resolve(te.inner, struct, error), te.count)
    raise error(f"bad type expression {te!r}", te.line)


def int_literal_type(lit: A.IntLit) -> CType:
    """An integer literal's type (C11 6.4.4.1): the first of its
    candidates that holds the value.  Unsuffixed decimal tries ``int``
    then ``long``; octal and hexadecimal also try the unsigned type of
    each rank, so ``0xFFFFFFFF`` and ``037777777777`` are ``unsigned
    int``; a ``u`` suffix tries only unsigned types and an ``l`` suffix
    starts at ``long``.  A value no candidate holds takes the last one."""
    if lit.is_unsigned:
        candidates = (ULONG,) if lit.is_long else (UINT, ULONG)
    elif lit.is_decimal:
        candidates = (LONG,) if lit.is_long else (INT, LONG)
    else:
        candidates = (LONG, ULONG) if lit.is_long else (INT, UINT, LONG, ULONG)
    v = lit.value
    for ct in candidates:
        half = 1 << (ct.bits - 1)
        if (-half <= v < half) if ct.signed else (0 <= v < 2 * half):
            return ct
    return candidates[-1]


def promote(ct: CType) -> CType:
    """C integer promotion: anything narrower than int becomes int."""
    if ct.is_int and ct.bits < 32:
        return INT
    return ct


def usual_arithmetic(a: CType, b: CType) -> CType:
    """The C 'usual arithmetic conversions' for two arithmetic operands."""
    if a.is_float or b.is_float:
        if (a.is_float and a.bits == 64) or (b.is_float and b.bits == 64):
            return DOUBLE
        return FLOAT if (a.is_float or b.is_float) else DOUBLE
    a, b = promote(a), promote(b)
    if a.bits == b.bits:
        if a.signed == b.signed:
            return a
        return a if not a.signed else b  # unsigned wins at equal rank
    wider = a if a.bits > b.bits else b
    narrower = b if a.bits > b.bits else a
    if wider.signed and not narrower.signed and wider.bits > narrower.bits:
        return wider  # wider signed can represent all narrower unsigned
    return wider


__all__ = [
    "BOOL_RESULT", "CHAR", "CHAR_PTR", "CType", "DOUBLE", "FLOAT", "INT",
    "LONG", "SHORT", "UCHAR", "UINT", "ULONG", "USHORT", "VOID", "VOID_PTR",
    "array_of", "int_literal_type", "named_type", "pointer_to", "promote",
    "usual_arithmetic",
]

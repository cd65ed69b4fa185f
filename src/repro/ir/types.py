"""Type system for the middle-end IR.

The IR models the slice of LLVM that matters for CARAT KOP: every memory
access is an explicit ``load`` or ``store`` whose pointer operand has a
:class:`PointerType`, so the guard-injection pass can compute the access
width from the pointee type alone.

Types are interned: constructing the same type twice returns the same
object, which makes equality checks cheap in the verifier and interpreter
hot paths (the optimization guide's "measure, then make the hot path
allocation-free" rule — type comparison happens on every executed
instruction).
"""

from __future__ import annotations

from typing import ClassVar, Iterable


class IRType:
    """Base class for all IR types.

    Subclasses are immutable and interned; identity comparison is
    therefore valid wherever equality is needed.
    """

    _interned: ClassVar[dict] = {}

    def size_bytes(self) -> int:
        """Size of a value of this type when stored in memory."""
        raise NotImplementedError

    def align_bytes(self) -> int:
        """Natural alignment of this type (power of two)."""
        return max(1, min(8, self.size_bytes()))

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self, (ArrayType, StructType))

    @property
    def is_first_class(self) -> bool:
        """True for types that can be SSA register values."""
        return not isinstance(self, (VoidType, FunctionType))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self}>"


class VoidType(IRType):
    """The ``void`` type; only valid as a function return type."""

    _instance: ClassVar["VoidType | None"] = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def size_bytes(self) -> int:
        raise TypeError("void has no size")

    def __str__(self) -> str:
        return "void"


class IntType(IRType):
    """Arbitrary fixed-width integer type (``i1``, ``i8``, ... ``i64``)."""

    __slots__ = ("bits",)

    def __new__(cls, bits: int) -> "IntType":
        if bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: i{bits}")
        key = ("int", bits)
        inst = cls._interned.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.bits = bits
            cls._interned[key] = inst
        return inst

    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    @property
    def max_unsigned(self) -> int:
        return (1 << self.bits) - 1

    @property
    def min_signed(self) -> int:
        return -(1 << (self.bits - 1)) if self.bits > 1 else 0

    @property
    def max_signed(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.bits > 1 else 1

    def wrap(self, value: int) -> int:
        """Truncate ``value`` to this width (two's complement, unsigned repr)."""
        return value & self.max_unsigned

    def to_signed(self, value: int) -> int:
        """Interpret an unsigned-repr value as signed two's complement."""
        value &= self.max_unsigned
        if self.bits > 1 and value > self.max_signed:
            value -= 1 << self.bits
        return value

    def __str__(self) -> str:
        return f"i{self.bits}"


class FloatType(IRType):
    """IEEE floating point (``f32`` or ``f64``)."""

    __slots__ = ("bits",)

    def __new__(cls, bits: int) -> "FloatType":
        if bits not in (32, 64):
            raise ValueError(f"unsupported float width: f{bits}")
        key = ("float", bits)
        inst = cls._interned.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.bits = bits
            cls._interned[key] = inst
        return inst

    def size_bytes(self) -> int:
        return self.bits // 8

    def __str__(self) -> str:
        return f"f{self.bits}"


class PointerType(IRType):
    """Typed pointer. Pointers are 64-bit on the simulated machine."""

    __slots__ = ("pointee",)

    POINTER_SIZE: ClassVar[int] = 8

    def __new__(cls, pointee: IRType) -> "PointerType":
        key = ("ptr", id(pointee))
        inst = cls._interned.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.pointee = pointee
            cls._interned[key] = inst
        return inst

    def size_bytes(self) -> int:
        return self.POINTER_SIZE

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(IRType):
    """Fixed-length array ``[N x T]``."""

    __slots__ = ("element", "count")

    def __new__(cls, element: IRType, count: int) -> "ArrayType":
        if count < 0:
            raise ValueError("array count must be non-negative")
        key = ("array", id(element), count)
        inst = cls._interned.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.element = element
            inst.count = count
            cls._interned[key] = inst
        return inst

    def size_bytes(self) -> int:
        return self.element.size_bytes() * self.count

    def align_bytes(self) -> int:
        return self.element.align_bytes()

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


def _align_up(offset: int, align: int) -> int:
    return (offset + align - 1) & ~(align - 1)


class StructType(IRType):
    """Named struct with C-style field layout (natural alignment, padding).

    Structs are interned by name so a module has one canonical instance per
    struct; the layout is computed once at construction.
    """

    __slots__ = ("name", "fields", "field_names", "_offsets", "_size", "_align")

    def __new__(
        cls,
        name: str,
        fields: Iterable[IRType],
        field_names: Iterable[str] | None = None,
    ) -> "StructType":
        fields = tuple(fields)
        key = ("struct", name, tuple(id(f) for f in fields))
        inst = cls._interned.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.name = name
            inst.fields = fields
            names = tuple(field_names) if field_names is not None else tuple(
                f"f{i}" for i in range(len(fields))
            )
            if len(names) != len(fields):
                raise ValueError("field_names length mismatch")
            inst.field_names = names
            offsets = []
            offset = 0
            align = 1
            for f in fields:
                a = f.align_bytes()
                align = max(align, a)
                offset = _align_up(offset, a)
                offsets.append(offset)
                offset += f.size_bytes()
            inst._offsets = tuple(offsets)
            inst._size = _align_up(offset, align) if fields else 0
            inst._align = align
            cls._interned[key] = inst
        return inst

    def size_bytes(self) -> int:
        return self._size

    def align_bytes(self) -> int:
        return self._align

    def field_offset(self, index: int) -> int:
        """Byte offset of field ``index`` within the struct."""
        return self._offsets[index]

    def field_index(self, name: str) -> int:
        """Index of the field called ``name`` (raises KeyError if absent)."""
        try:
            return self.field_names.index(name)
        except ValueError:
            raise KeyError(f"struct {self.name} has no field {name!r}") from None

    def __str__(self) -> str:
        return f"%{self.name}"


class FunctionType(IRType):
    """Function signature ``ret (params...)``."""

    __slots__ = ("ret", "params", "vararg")

    def __new__(
        cls, ret: IRType, params: Iterable[IRType], vararg: bool = False
    ) -> "FunctionType":
        params = tuple(params)
        key = ("fn", id(ret), tuple(id(p) for p in params), vararg)
        inst = cls._interned.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.ret = ret
            inst.params = params
            inst.vararg = vararg
            cls._interned[key] = inst
        return inst

    def size_bytes(self) -> int:
        raise TypeError("function types have no size")

    def __str__(self) -> str:
        parts = [str(p) for p in self.params]
        if self.vararg:
            parts.append("...")
        return f"{self.ret} ({', '.join(parts)})"


# Canonical singletons used throughout the code base.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
I8PTR = PointerType(I8)


def ptr(t: IRType) -> PointerType:
    """Shorthand for :class:`PointerType` construction."""
    return PointerType(t)

"""Instruction set of the middle-end IR.

The set is deliberately the minimum that (a) a C subset lowers to and
(b) makes every memory access explicit, because CARAT KOP's contribution
is a pass that walks exactly these ``load``/``store`` instructions and
prefixes each with a call to ``carat_guard`` (paper §3.3).

``InlineAsm`` exists so the signing stage has something to attest about:
the paper's compiler certifies the absence of inline assembly (§2, §5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .types import (
    VOID,
    FloatType,
    FunctionType,
    IRType,
    IntType,
    PointerType,
)
from .values import Value

if TYPE_CHECKING:  # pragma: no cover
    from .module import BasicBlock, Function


class Instruction(Value):
    """Base class.  An instruction is also the SSA value it produces."""

    __slots__ = ("operands", "parent")

    opcode: str = "?"
    is_terminator: bool = False
    has_side_effects: bool = False

    def __init__(self, type: IRType, operands: Sequence[Value], name: str = ""):
        super().__init__(type, name)
        self.operands: list[Value] = list(operands)
        self.parent: Optional["BasicBlock"] = None

    def ref(self) -> str:
        return f"{self.type} %{self.name}"

    @property
    def function(self) -> "Function | None":
        return self.parent.parent if self.parent is not None else None


# ---------------------------------------------------------------------------
# Memory instructions
# ---------------------------------------------------------------------------


class Alloca(Instruction):
    """Stack allocation in the current frame; yields a pointer."""

    __slots__ = ("allocated_type", "count")

    opcode = "alloca"
    has_side_effects = True  # frame layout

    def __init__(self, allocated_type: IRType, count: int = 1, name: str = ""):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type
        self.count = count

    @property
    def size_bytes(self) -> int:
        return self.allocated_type.size_bytes() * self.count


class Load(Instruction):
    """``load T, T* ptr`` — read ``sizeof(T)`` bytes from memory."""

    __slots__ = ()

    opcode = "load"
    has_side_effects = True  # may fault / touch MMIO

    def __init__(self, ptr: Value, name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise TypeError("load pointer operand must have pointer type")
        super().__init__(ptr.type.pointee, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def access_size(self) -> int:
        """Byte width of the access, as the guard pass reports it."""
        return self.type.size_bytes()


class Store(Instruction):
    """``store T val, T* ptr`` — write ``sizeof(T)`` bytes to memory."""

    __slots__ = ()

    opcode = "store"
    has_side_effects = True

    def __init__(self, value: Value, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise TypeError("store pointer operand must have pointer type")
        if ptr.type.pointee is not value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {ptr.type}"
            )
        super().__init__(VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    @property
    def access_size(self) -> int:
        return self.value.type.size_bytes()


class Gep(Instruction):
    """``getelementptr``-style address arithmetic, pre-lowered to bytes.

    ``result = base + byte_offset`` where ``byte_offset`` may itself be a
    computed value (``index * scale + displacement``).  Lowering GEP to
    explicit byte arithmetic keeps the interpreter simple while retaining
    the property that address computation never touches memory.
    """

    __slots__ = ("scale", "displacement")

    opcode = "gep"

    def __init__(
        self,
        result_type: PointerType,
        base: Value,
        index: Value,
        scale: int,
        displacement: int = 0,
        name: str = "",
    ):
        if not isinstance(base.type, PointerType):
            raise TypeError("gep base must be a pointer")
        if not isinstance(index.type, IntType):
            raise TypeError("gep index must be an integer")
        super().__init__(result_type, [base, index], name)
        self.scale = scale
        self.displacement = displacement

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]


# ---------------------------------------------------------------------------
# Arithmetic / logic
# ---------------------------------------------------------------------------

BINOPS = (
    "add",
    "sub",
    "mul",
    "sdiv",
    "udiv",
    "srem",
    "urem",
    "and",
    "or",
    "xor",
    "shl",
    "lshr",
    "ashr",
    "fadd",
    "fsub",
    "fmul",
    "fdiv",
)

_FLOAT_BINOPS = frozenset(op for op in BINOPS if op.startswith("f"))


class BinOp(Instruction):
    """Two-operand arithmetic; operands and result share one type."""

    __slots__ = ("op",)

    opcode = "binop"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINOPS:
            raise ValueError(f"unknown binop {op!r}")
        if lhs.type is not rhs.type:
            raise TypeError(f"binop operand mismatch: {lhs.type} vs {rhs.type}")
        if op in _FLOAT_BINOPS:
            if not isinstance(lhs.type, FloatType):
                raise TypeError(f"{op} requires float operands")
        else:
            if not isinstance(lhs.type, IntType):
                raise TypeError(f"{op} requires integer operands")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge", "une")


class ICmp(Instruction):
    """Integer / pointer comparison producing an ``i1``."""

    __slots__ = ("pred",)

    opcode = "icmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        if pred not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {pred!r}")
        if lhs.type is not rhs.type:
            raise TypeError(f"icmp operand mismatch: {lhs.type} vs {rhs.type}")
        if not isinstance(lhs.type, (IntType, PointerType)):
            raise TypeError("icmp requires integer or pointer operands")
        super().__init__(IntType(1), [lhs, rhs], name)
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class FCmp(Instruction):
    """Float comparison producing an ``i1`` (ordered predicates only)."""

    __slots__ = ("pred",)

    opcode = "fcmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        if pred not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {pred!r}")
        if lhs.type is not rhs.type or not isinstance(lhs.type, FloatType):
            raise TypeError("fcmp requires matching float operands")
        super().__init__(IntType(1), [lhs, rhs], name)
        self.pred = pred


CAST_OPS = (
    "trunc",
    "zext",
    "sext",
    "bitcast",
    "ptrtoint",
    "inttoptr",
    "sitofp",
    "fptosi",
    "fpext",
    "fptrunc",
)


class Cast(Instruction):
    """Value conversions between first-class types."""

    __slots__ = ("op",)

    opcode = "cast"

    def __init__(self, op: str, value: Value, to_type: IRType, name: str = ""):
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast {op!r}")
        _check_cast(op, value.type, to_type)
        super().__init__(to_type, [value], name)
        self.op = op

    @property
    def value(self) -> Value:
        return self.operands[0]


def _check_cast(op: str, src: IRType, dst: IRType) -> None:
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise TypeError(f"invalid {op}: {src} -> {dst} ({msg})")

    if op == "trunc":
        need(isinstance(src, IntType) and isinstance(dst, IntType), "int->int")
        need(src.bits > dst.bits, "must narrow")  # type: ignore[union-attr]
    elif op in ("zext", "sext"):
        need(isinstance(src, IntType) and isinstance(dst, IntType), "int->int")
        need(src.bits < dst.bits, "must widen")  # type: ignore[union-attr]
    elif op == "bitcast":
        need(isinstance(src, PointerType) and isinstance(dst, PointerType), "ptr->ptr")
    elif op == "ptrtoint":
        need(isinstance(src, PointerType) and isinstance(dst, IntType), "ptr->int")
    elif op == "inttoptr":
        need(isinstance(src, IntType) and isinstance(dst, PointerType), "int->ptr")
    elif op == "sitofp":
        need(isinstance(src, IntType) and isinstance(dst, FloatType), "int->float")
    elif op == "fptosi":
        need(isinstance(src, FloatType) and isinstance(dst, IntType), "float->int")
    elif op == "fpext":
        need(
            isinstance(src, FloatType)
            and isinstance(dst, FloatType)
            and src.bits < dst.bits,  # type: ignore[union-attr]
            "must widen",
        )
    elif op == "fptrunc":
        need(
            isinstance(src, FloatType)
            and isinstance(dst, FloatType)
            and src.bits > dst.bits,  # type: ignore[union-attr]
            "must narrow",
        )


class Select(Instruction):
    """``select i1 cond, T a, T b`` — branchless conditional."""

    __slots__ = ()

    opcode = "select"

    def __init__(self, cond: Value, a: Value, b: Value, name: str = ""):
        if not (isinstance(cond.type, IntType) and cond.type.bits == 1):
            raise TypeError("select condition must be i1")
        if a.type is not b.type:
            raise TypeError("select arm type mismatch")
        super().__init__(a.type, [cond, a, b], name)


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


class Br(Instruction):
    """Unconditional or conditional branch."""

    __slots__ = ("targets",)

    opcode = "br"
    is_terminator = True
    has_side_effects = True

    def __init__(
        self,
        target: "BasicBlock",
        cond: Optional[Value] = None,
        if_false: Optional["BasicBlock"] = None,
    ):
        if cond is not None:
            if if_false is None:
                raise ValueError("conditional branch needs a false target")
            if not (isinstance(cond.type, IntType) and cond.type.bits == 1):
                raise TypeError("branch condition must be i1")
            super().__init__(VOID, [cond])
            self.targets = [target, if_false]
        else:
            super().__init__(VOID, [])
            self.targets = [target]

    @property
    def is_conditional(self) -> bool:
        return len(self.targets) == 2

    @property
    def condition(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Switch(Instruction):
    """``switch`` over an integer value with a default target."""

    __slots__ = ("cases", "default")

    opcode = "switch"
    is_terminator = True
    has_side_effects = True

    def __init__(
        self,
        value: Value,
        default: "BasicBlock",
        cases: Sequence[tuple[int, "BasicBlock"]] = (),
    ):
        if not isinstance(value.type, IntType):
            raise TypeError("switch value must be an integer")
        super().__init__(VOID, [value])
        self.default = default
        self.cases: list[tuple[int, "BasicBlock"]] = list(cases)

    def add_case(self, const: int, target: "BasicBlock") -> None:
        self.cases.append((const, target))

    @property
    def targets(self) -> list["BasicBlock"]:
        return [self.default] + [b for _, b in self.cases]


class Ret(Instruction):
    """Function return, optionally with a value."""

    __slots__ = ()

    opcode = "ret"
    is_terminator = True
    has_side_effects = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    @property
    def targets(self) -> list["BasicBlock"]:
        return []


class Unreachable(Instruction):
    """Marks statically unreachable control flow (e.g. after panic)."""

    __slots__ = ()

    opcode = "unreachable"
    is_terminator = True
    has_side_effects = True

    def __init__(self) -> None:
        super().__init__(VOID, [])

    @property
    def targets(self) -> list["BasicBlock"]:
        return []


class Phi(Instruction):
    """SSA phi node; incoming values keyed by predecessor block."""

    __slots__ = ("incoming",)

    opcode = "phi"

    def __init__(self, type: IRType, name: str = ""):
        super().__init__(type, [], name)
        self.incoming: list[tuple[Value, "BasicBlock"]] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type:
            raise TypeError(
                f"phi incoming type mismatch: {value.type} vs {self.type}"
            )
        self.incoming.append((value, block))
        self.operands.append(value)

    def incoming_for(self, block: "BasicBlock") -> Value:
        for v, b in self.incoming:
            if b is block:
                return v
        raise KeyError(f"phi has no incoming edge from {block.name}")


class Call(Instruction):
    """Direct call to a function symbol.

    The callee is a :class:`repro.ir.module.Function`; cross-module calls
    are represented by calling a *declaration*, which the kernel's module
    linker later binds to a definition (paper §3.2: the protected module is
    linked against the policy module's ``carat_guard`` at insertion).
    """

    __slots__ = ("callee", "is_guard")

    opcode = "call"
    has_side_effects = True

    def __init__(self, callee: "Function", args: Sequence[Value], name: str = ""):
        ftype = callee.function_type
        if len(args) != len(ftype.params) and not ftype.vararg:
            raise TypeError(
                f"call to @{callee.name}: expected {len(ftype.params)} args, "
                f"got {len(args)}"
            )
        if ftype.vararg and len(args) < len(ftype.params):
            raise TypeError(f"call to @{callee.name}: too few args for vararg")
        for i, (a, p) in enumerate(zip(args, ftype.params)):
            if a.type is not p:
                raise TypeError(
                    f"call to @{callee.name}: arg {i} has type {a.type}, "
                    f"expected {p}"
                )
        super().__init__(ftype.ret, list(args), name)
        self.callee = callee
        # Set by the guard-injection pass so later passes / the verifier can
        # recognize guard calls without string comparison on hot paths.
        self.is_guard = False

    @property
    def args(self) -> list[Value]:
        return self.operands


class InlineAsm(Instruction):
    """Inline assembly marker.

    The simulated machine cannot execute this; its purpose is to exercise
    the attestation path: the CARAT KOP signer refuses to certify modules
    containing inline assembly (paper §2), and the loader refuses to insert
    uncertified modules.
    """

    __slots__ = ("asm_text",)

    opcode = "asm"
    has_side_effects = True

    def __init__(self, asm_text: str, name: str = ""):
        super().__init__(VOID, [], name)
        self.asm_text = asm_text


TERMINATORS = (Br, Switch, Ret, Unreachable)

__all__ = [
    "Alloca",
    "BINOPS",
    "BinOp",
    "Br",
    "CAST_OPS",
    "Call",
    "Cast",
    "FCMP_PREDICATES",
    "FCmp",
    "Gep",
    "ICMP_PREDICATES",
    "ICmp",
    "InlineAsm",
    "Instruction",
    "Load",
    "Phi",
    "Ret",
    "Select",
    "Store",
    "Switch",
    "TERMINATORS",
    "Unreachable",
]

"""Mini-C to IR lowering with on-the-fly type checking.

Lowering is clang -O0 style: every local lives in an ``alloca`` and every
variable access is a load/store.  The pass pipeline then runs ``mem2reg``
so that, like the paper's use of an optimizing clang, only *real* memory
references remain for the guard pass to instrument (paper §3.3).
"""

from __future__ import annotations

from typing import Optional

from . import cast as A
from . import ctypes_ as C
from .constexpr import fold
from ..ir import (
    Function,
    FunctionType,
    GlobalVariable,
    IRBuilder,
    Module,
    PointerType,
    VOID,
    I1,
    I8,
    I32,
    I64,
)
from ..ir.types import FloatType, IntType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    Value,
)


class CompileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _FunctionInfo:
    """Front-end view of a declared function."""

    __slots__ = ("ir", "ret", "params", "vararg", "native")

    def __init__(self, ir: Function, ret: C.CType, params: list[C.CType], vararg: bool):
        self.ir = ir
        self.ret = ret
        self.params = params
        self.vararg = vararg


class _Scope:
    """Lexical scope mapping names to (alloca pointer, CType)."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.vars: dict[str, tuple[Value, C.CType]] = {}

    def define(self, name: str, slot: Value, ct: C.CType, line: int) -> None:
        if name in self.vars:
            raise CompileError(f"redefinition of {name!r}", line)
        self.vars[name] = (slot, ct)

    def lookup(self, name: str) -> Optional[tuple[Value, C.CType]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            hit = scope.vars.get(name)
            if hit is not None:
                return hit
            scope = scope.parent
        return None


class CodeGenerator:
    """Lowers one translation unit into one IR module."""

    def __init__(self, module_name: str):
        self.module = Module(module_name)
        self.structs: dict[str, C.CType] = {}
        self.functions: dict[str, _FunctionInfo] = {}
        self.globals: dict[str, C.CType] = {}
        self.b = IRBuilder()
        self._string_counter = 0
        self._defined: set[str] = set()
        # per-function state
        self._current: Optional[_FunctionInfo] = None
        self._scope: Optional[_Scope] = None
        self._break_stack: list = []
        self._continue_stack: list = []

    # ------------------------------------------------------------------ types

    def resolve_type(self, te: A.TypeExpr) -> C.CType:
        return C.resolve(te, self._struct, CompileError)

    def _struct(self, name: str, line: int) -> C.CType:
        st = self.structs.get(name)
        if st is None:
            raise CompileError(f"unknown struct {name!r}", line)
        return st

    # ------------------------------------------------------------------ entry

    def generate(self, unit: A.TranslationUnit) -> Module:
        for item in unit.items:
            if isinstance(item, A.StructDef):
                self.gen_struct(item)
            elif isinstance(item, A.EnumDef):
                pass  # folded into IntLits by the parser
            elif isinstance(item, A.GlobalDecl):
                self.gen_global(item)
            elif isinstance(item, A.FunctionDef):
                self.declare_function(item)
            else:
                raise CompileError("unexpected top-level item", item.line)
        for item in unit.items:
            if isinstance(item, A.FunctionDef) and item.body is not None:
                self.gen_function_body(item)
        return self.module

    def gen_struct(self, sd: A.StructDef) -> None:
        if sd.name in self.structs:
            raise CompileError(f"redefinition of struct {sd.name}", sd.line)
        ct = C.CType("struct", name=sd.name, fields=[])
        # Register before resolving fields so self-referencing *pointers*
        # work (they are i64 in memory and never need the completed layout).
        self.structs[sd.name] = ct
        for ftype_expr, fname in sd.fields:
            ftype = self.resolve_type(ftype_expr)
            if ftype.is_struct and ftype._ir_struct is None and ftype is ct:
                raise CompileError(
                    f"struct {sd.name} contains itself by value", sd.line
                )
            if any(n == fname for n, _ in ct.fields):
                raise CompileError(f"duplicate field {fname!r}", sd.line)
            ct.fields.append((fname, ftype))
        ct.complete_struct()
        self.module.add_struct(ct._ir_struct)  # type: ignore[arg-type]

    def gen_global(self, gd: A.GlobalDecl) -> None:
        ct = self.resolve_type(gd.type)
        if gd.name in self.globals or gd.name in self.functions:
            raise CompileError(f"redefinition of {gd.name!r}", gd.line)
        if ct.is_void:
            raise CompileError("global of type void", gd.line)
        linkage = "internal"
        if gd.is_extern:
            linkage = "external"
            if gd.init is not None:
                raise CompileError("extern global with initializer", gd.line)
        elif getattr(gd, "is_export", False):
            linkage = "exported"  # EXPORT_SYMBOL analog for data
        initializer = None
        if gd.init is not None:
            initializer = self._const_initializer(gd.init, ct)
        self.module.add_global(
            GlobalVariable(ct.memory_type(), gd.name, initializer, linkage,
                           gd.is_const)
        )
        self.globals[gd.name] = ct

    def _const_initializer(self, expr: A.Expr, ct: C.CType):
        value = fold(expr, CompileError, self.resolve_type,
                     ct if ct.is_arith else None)
        if isinstance(value, bytes):
            if not (ct.is_array and ct.element is C.CHAR):
                if ct.is_array and ct.element is not None and ct.element.is_int \
                        and ct.element.bits == 8:
                    pass
                else:
                    raise CompileError(
                        "string initializer requires char array", expr.line
                    )
            data = value + b"\x00"
            if ct.count < len(data):
                raise CompileError("string too long for array", expr.line)
            data = data.ljust(ct.count, b"\x00")
            return ConstantString(data)
        if isinstance(value, float):
            if not ct.is_float:
                raise CompileError("float initializer for non-float", expr.line)
            return ConstantFloat(FloatType(ct.bits), value)
        if isinstance(value, int):
            if ct.is_ptr:
                if value != 0:
                    raise CompileError(
                        "pointer globals may only be initialized to null",
                        expr.line,
                    )
                return ConstantInt(I64, 0)
            if not ct.is_int:
                raise CompileError("integer initializer for non-integer", expr.line)
            return ConstantInt(IntType(ct.bits), value)
        raise CompileError("unsupported global initializer", expr.line)

    # ------------------------------------------------------------------ functions

    def declare_function(self, fd: A.FunctionDef) -> _FunctionInfo:
        ret = self.resolve_type(fd.ret)
        params = [self.resolve_type(p.type) for p in fd.params]
        for p, pct in zip(fd.params, params):
            if pct.is_array:
                raise CompileError("array parameter must decay to pointer", p.line)
            if pct.is_struct:
                raise CompileError("pass structs by pointer", p.line)
            if pct.is_void:
                raise CompileError("void parameter", p.line)
        if ret.is_struct or ret.is_array:
            raise CompileError("return aggregates by pointer", fd.line)
        existing = self.functions.get(fd.name)
        ftype = FunctionType(
            ret.value_type(), [p.value_type() for p in params], fd.vararg
        )
        if existing is not None:
            if existing.ir.function_type is not ftype:
                raise CompileError(
                    f"conflicting declaration of {fd.name!r}", fd.line
                )
            if fd.body is not None:
                if fd.name in self._defined:
                    raise CompileError(f"redefinition of {fd.name!r}", fd.line)
                self._defined.add(fd.name)
            return existing
        if fd.body is not None:
            self._defined.add(fd.name)
        if fd.is_export:
            linkage = "exported"
        elif fd.body is None:
            linkage = "external"
        else:
            linkage = "internal"
        fn = Function(fd.name, ftype, [p.name for p in fd.params], linkage)
        self.module.add_function(fn)
        info = _FunctionInfo(fn, ret, params, fd.vararg)
        self.functions[fd.name] = info
        return info

    def gen_function_body(self, fd: A.FunctionDef) -> None:
        info = self.functions[fd.name]
        fn = info.ir
        if fn.is_declaration and fd.body is not None and fn.linkage == "external":
            fn.linkage = "internal" if not fd.is_export else "exported"
        self._current = info
        self._scope = _Scope()
        self._break_stack = []
        self._continue_stack = []
        entry = fn.add_block("entry")
        self.b.position_at_end(entry)
        # Spill parameters into allocas (mem2reg will promote them back).
        for arg, pct in zip(fn.args, info.params):
            slot = self.b.alloca(pct.memory_type(), 1, f"{arg.name}.addr")
            self._store_converted_value(arg, pct, slot)
            self._scope.define(arg.name, slot, pct, fd.line)
        assert fd.body is not None
        self.gen_block(fd.body)
        # Implicit return at the end of void functions / fallthrough.
        if self.b.block is not None and self.b.block.terminator is None:
            if info.ret.is_void:
                self.b.ret()
            else:
                self.b.ret(self._zero_value(info.ret))
        self._current = None
        self._scope = None

    def _zero_value(self, ct: C.CType) -> Value:
        if ct.is_int:
            return ConstantInt(IntType(ct.bits), 0)
        if ct.is_float:
            return ConstantFloat(FloatType(ct.bits), 0.0)
        if ct.is_ptr:
            return ConstantNull(ct.value_type())  # type: ignore[arg-type]
        raise TypeError(f"no zero for {ct}")

    def _store_converted_value(self, value: Value, ct: C.CType, slot: Value) -> None:
        """Store an SSA value into a memory slot, lowering pointers to i64."""
        if ct.is_ptr:
            value = self.b.ptrtoint(value, I64)
        self.b.store(value, slot)

    def _load_slot(self, slot: Value, ct: C.CType, name: str = "") -> Value:
        """Load a scalar from a memory slot, raising pointers back to typed."""
        if name:
            name = self.b.function.unique_name(name)
        v = self.b.load(slot, name)
        if ct.is_ptr:
            v = self.b.inttoptr(v, ct.value_type())
        return v

    # ------------------------------------------------------------------ statements

    def gen_block(self, block: A.Block) -> None:
        assert self._scope is not None
        self._scope = _Scope(self._scope)
        for stmt in block.statements:
            if self.b.block is not None and self.b.block.terminator is not None:
                break  # statically unreachable code after return/break/continue
            self.gen_statement(stmt)
        self._scope = self._scope.parent

    def gen_statement(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            self.gen_block(stmt)
        elif isinstance(stmt, A.ExprStmt):
            self.gen_expr(stmt.expr)
        elif isinstance(stmt, A.LocalDecl):
            self.gen_local_decl(stmt)
        elif isinstance(stmt, A.If):
            self.gen_if(stmt)
        elif isinstance(stmt, A.While):
            self.gen_while(stmt)
        elif isinstance(stmt, A.DoWhile):
            self.gen_do_while(stmt)
        elif isinstance(stmt, A.For):
            self.gen_for(stmt)
        elif isinstance(stmt, A.SwitchStmt):
            self.gen_switch(stmt)
        elif isinstance(stmt, A.Return):
            self.gen_return(stmt)
        elif isinstance(stmt, A.Break):
            if not self._break_stack:
                raise CompileError("break outside loop/switch", stmt.line)
            self.b.br(self._break_stack[-1])
        elif isinstance(stmt, A.Continue):
            if not self._continue_stack:
                raise CompileError("continue outside loop", stmt.line)
            self.b.br(self._continue_stack[-1])
        elif isinstance(stmt, A.AsmStmt):
            self.b.inline_asm(stmt.text)
        else:
            raise CompileError(f"bad statement {stmt!r}", stmt.line)

    def gen_local_decl(self, decl: A.LocalDecl) -> None:
        assert self._scope is not None
        ct = self.resolve_type(decl.type)
        if ct.is_void:
            raise CompileError("variable of type void", decl.line)
        slot = self.b.alloca(
            ct.memory_type(), 1, self.b.function.unique_name(decl.name)
        )
        self._scope.define(decl.name, slot, ct, decl.line)
        if decl.init is not None:
            if isinstance(decl.init, A.StringLit) and ct.is_array:
                self._init_char_array(slot, ct, decl.init)
                return
            value, vct = self.gen_expr(decl.init)
            value = self.convert(value, vct, ct, decl.line)
            self._store_converted_value(value, ct, slot)

    def _init_char_array(self, slot: Value, ct: C.CType, lit: A.StringLit) -> None:
        data = lit.data + b"\x00"
        if ct.count < len(data):
            raise CompileError("string too long for array", lit.line)
        base = self.b.bitcast(slot, PointerType(I8))
        for i, byte in enumerate(data):
            p = self.b.gep(PointerType(I8), base, self.b.const_i64(i), 1, 0)
            self.b.store(self.b.const_i8(byte), p)

    def gen_if(self, stmt: A.If) -> None:
        fn = self._current.ir  # type: ignore[union-attr]
        cond = self.gen_condition(stmt.cond)
        then_bb = fn.add_block("if.then")
        end_bb = fn.add_block("if.end")
        else_bb = fn.add_block("if.else") if stmt.other is not None else end_bb
        self.b.cond_br(cond, then_bb, else_bb)
        self.b.position_at_end(then_bb)
        self.gen_statement(stmt.then)
        if self.b.block.terminator is None:
            self.b.br(end_bb)
        if stmt.other is not None:
            self.b.position_at_end(else_bb)
            self.gen_statement(stmt.other)
            if self.b.block.terminator is None:
                self.b.br(end_bb)
        self.b.position_at_end(end_bb)

    def gen_while(self, stmt: A.While) -> None:
        fn = self._current.ir  # type: ignore[union-attr]
        cond_bb = fn.add_block("while.cond")
        body_bb = fn.add_block("while.body")
        end_bb = fn.add_block("while.end")
        self.b.br(cond_bb)
        self.b.position_at_end(cond_bb)
        self.b.cond_br(self.gen_condition(stmt.cond), body_bb, end_bb)
        self.b.position_at_end(body_bb)
        self._break_stack.append(end_bb)
        self._continue_stack.append(cond_bb)
        self.gen_statement(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if self.b.block.terminator is None:
            self.b.br(cond_bb)
        self.b.position_at_end(end_bb)

    def gen_do_while(self, stmt: A.DoWhile) -> None:
        fn = self._current.ir  # type: ignore[union-attr]
        body_bb = fn.add_block("do.body")
        cond_bb = fn.add_block("do.cond")
        end_bb = fn.add_block("do.end")
        self.b.br(body_bb)
        self.b.position_at_end(body_bb)
        self._break_stack.append(end_bb)
        self._continue_stack.append(cond_bb)
        self.gen_statement(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if self.b.block.terminator is None:
            self.b.br(cond_bb)
        self.b.position_at_end(cond_bb)
        self.b.cond_br(self.gen_condition(stmt.cond), body_bb, end_bb)
        self.b.position_at_end(end_bb)

    def gen_for(self, stmt: A.For) -> None:
        assert self._scope is not None
        fn = self._current.ir  # type: ignore[union-attr]
        self._scope = _Scope(self._scope)
        if stmt.init is not None:
            self.gen_statement(stmt.init)
        cond_bb = fn.add_block("for.cond")
        body_bb = fn.add_block("for.body")
        step_bb = fn.add_block("for.step")
        end_bb = fn.add_block("for.end")
        self.b.br(cond_bb)
        self.b.position_at_end(cond_bb)
        if stmt.cond is not None:
            self.b.cond_br(self.gen_condition(stmt.cond), body_bb, end_bb)
        else:
            self.b.br(body_bb)
        self.b.position_at_end(body_bb)
        self._break_stack.append(end_bb)
        self._continue_stack.append(step_bb)
        self.gen_statement(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if self.b.block.terminator is None:
            self.b.br(step_bb)
        self.b.position_at_end(step_bb)
        if stmt.step is not None:
            self.gen_expr(stmt.step)
        self.b.br(cond_bb)
        self.b.position_at_end(end_bb)
        self._scope = self._scope.parent

    def gen_switch(self, stmt: A.SwitchStmt) -> None:
        fn = self._current.ir  # type: ignore[union-attr]
        value, vct = self.gen_expr(stmt.value)
        if not vct.is_int:
            raise CompileError("switch value must be an integer", stmt.line)
        pct = C.promote(vct)
        value = self.convert(value, vct, pct, stmt.line)
        vtype = IntType(pct.bits)
        end_bb = fn.add_block("switch.end")
        case_blocks = [fn.add_block(f"switch.case{i}") for i in range(len(stmt.cases))]
        default_bb = end_bb
        cases: list[tuple[int, object]] = []
        seen: set[int] = set()
        for i, case in enumerate(stmt.cases):
            if case.is_default:
                default_bb = case_blocks[i]
            for cv in case.values:
                wrapped = vtype.wrap(cv)
                if wrapped in seen:
                    raise CompileError(f"duplicate case {cv}", case.line)
                seen.add(wrapped)
                cases.append((wrapped, case_blocks[i]))
        self.b.switch(value, default_bb, cases)  # type: ignore[arg-type]
        self._break_stack.append(end_bb)
        for i, case in enumerate(stmt.cases):
            self.b.position_at_end(case_blocks[i])
            for s in case.body:
                self.gen_statement(s)
                if self.b.block.terminator is not None:
                    break
            if self.b.block.terminator is None:
                # C fallthrough into the next case block (or the end).
                nxt = case_blocks[i + 1] if i + 1 < len(case_blocks) else end_bb
                self.b.br(nxt)
        self._break_stack.pop()
        self.b.position_at_end(end_bb)

    def gen_return(self, stmt: A.Return) -> None:
        info = self._current
        assert info is not None
        if stmt.value is None:
            if not info.ret.is_void:
                raise CompileError("return without value", stmt.line)
            self.b.ret()
            return
        if info.ret.is_void:
            raise CompileError("return with value in void function", stmt.line)
        value, vct = self.gen_expr(stmt.value)
        self.b.ret(self.convert(value, vct, info.ret, stmt.line))

    # ------------------------------------------------------------------ expressions

    def gen_condition(self, expr: A.Expr) -> Value:
        """Evaluate an expression as an ``i1`` condition."""
        value, ct = self.gen_expr(expr)
        return self._to_i1(value, ct, expr.line)

    def _to_i1(self, value: Value, ct: C.CType, line: int) -> Value:
        if ct.is_int:
            if ct.bits == 1:
                return value
            return self.b.icmp("ne", value, ConstantInt(IntType(ct.bits), 0))
        if ct.is_ptr:
            return self.b.icmp("ne", value, ConstantNull(value.type))  # type: ignore[arg-type]
        if ct.is_float:
            # C tests a scalar against 0 with !=: a NaN is true.
            return self.b.fcmp("une", value, ConstantFloat(FloatType(ct.bits), 0.0))
        raise CompileError(f"cannot use {ct} as a condition", line)

    def convert(self, value: Value, src: C.CType, dst: C.CType, line: int) -> Value:
        """Implicit conversion from ``src`` to ``dst`` (C assignment rules)."""
        if src.same(dst):
            return value
        if src.is_array and dst.is_ptr:
            raise CompileError("array should have decayed", line)
        if src.is_int and dst.is_int:
            if src.bits == dst.bits:
                return value  # same representation, only signedness differs
            if src.bits > dst.bits:
                return self.b.cast("trunc", value, IntType(dst.bits))
            op = "sext" if src.signed else "zext"
            return self.b.cast(op, value, IntType(dst.bits))
        if src.is_int and dst.is_float:
            ft = FloatType(dst.bits)
            if src.signed:
                return self.b.cast("sitofp", value, ft)
            if src.bits < 64:
                # Widen first so the sitofp sees a non-negative value.
                return self.b.cast("sitofp", self.b.cast("zext", value, I64), ft)
            return self._unsigned_long_to_float(value, ft)
        if src.is_float and dst.is_int:
            if dst.signed:
                return self.b.cast("fptosi", value, IntType(dst.bits))
            return self._float_to_unsigned(value, dst)
        if src.is_float and dst.is_float:
            op = "fpext" if dst.bits > src.bits else "fptrunc"
            return self.b.cast(op, value, FloatType(dst.bits))
        if src.is_ptr and dst.is_ptr:
            # void* converts freely; otherwise require explicit casts,
            # except that any pointer converts to void*.
            if dst.pointee.is_void or src.pointee.is_void:  # type: ignore[union-attr]
                return self.b.bitcast(value, dst.value_type())  # type: ignore[arg-type]
            raise CompileError(f"implicit pointer conversion {src} -> {dst}", line)
        if src.is_int and dst.is_ptr:
            if isinstance(value, ConstantInt) and value.value == 0:
                return ConstantNull(dst.value_type())  # type: ignore[arg-type]
            raise CompileError(f"implicit int-to-pointer ({src} -> {dst})", line)
        raise CompileError(f"cannot convert {src} to {dst}", line)

    def _unsigned_long_to_float(self, value: Value, ft: FloatType) -> Value:
        """``unsigned long`` to float, correctly rounded for every value.

        ``sitofp`` reads the signed view, so this lowers the way x86
        compilers do: with the sign bit clear, a plain ``sitofp``;
        otherwise halve keeping the dropped bit sticky,
        ``sitofp((x >> 1) | (x & 1))``, which rounds as ``x`` would (the
        sticky bit sits below either float's precision), and double the
        result with one exact ``fadd``."""
        one = ConstantInt(I64, 1)
        low = self.b.cast("sitofp", value, ft)
        half = self.b.or_(self.b.lshr(value, one), self.b.and_(value, one))
        halved = self.b.cast("sitofp", half, ft)
        high = self.b.binop("fadd", halved, halved)
        negative = self.b.icmp("slt", value, ConstantInt(I64, 0))
        return self.b.select(negative, high, low)

    def _float_to_unsigned(self, value: Value, dst: C.CType) -> Value:
        """Float to unsigned ``dst``, exact for every value in its range.

        ``fptosi`` converts into a signed range only, so this lowers the
        way x86 compilers do: a narrower type converts to i64 and
        truncates; ``unsigned long`` splits at 2**63 and, above it,
        converts ``value - 2**63`` (exact there) and sets the top bit."""
        if dst.bits < 64:
            wide = self.b.cast("fptosi", value, I64)
            return self.b.cast("trunc", wide, IntType(dst.bits))
        split = ConstantFloat(value.type, 2.0 ** 63)  # type: ignore[arg-type]
        low = self.b.cast("fptosi", value, I64)
        rebased = self.b.cast("fptosi", self.b.binop("fsub", value, split), I64)
        high = self.b.xor(rebased, ConstantInt(I64, 1 << 63))
        return self.b.select(self.b.fcmp("oge", value, split), high, low)

    def explicit_cast(self, value: Value, src: C.CType, dst: C.CType, line: int) -> Value:
        if dst.is_void:
            return value
        if src.is_ptr and dst.is_ptr:
            return self.b.bitcast(value, dst.value_type())  # type: ignore[arg-type]
        if src.is_ptr and dst.is_int:
            v = self.b.ptrtoint(value, I64)
            if dst.bits < 64:
                v = self.b.cast("trunc", v, IntType(dst.bits))
            return v
        if src.is_int and dst.is_ptr:
            if src.bits < 64:
                op = "sext" if src.signed else "zext"
                value = self.b.cast(op, value, I64)
            return self.b.inttoptr(value, dst.value_type())  # type: ignore[arg-type]
        return self.convert(value, src, dst, line)

    # -- lvalues -----------------------------------------------------------

    def gen_lvalue(self, expr: A.Expr) -> tuple[Value, C.CType]:
        """Return (typed pointer to storage, CType of the object)."""
        if isinstance(expr, A.Ident):
            assert self._scope is not None
            hit = self._scope.lookup(expr.name)
            if hit is not None:
                return hit[0], hit[1]
            gct = self.globals.get(expr.name)
            if gct is not None:
                g = self.module.get_global(expr.name)
                return g, gct
            raise CompileError(f"undefined variable {expr.name!r}", expr.line)
        if isinstance(expr, A.Unary) and expr.op == "*":
            value, ct = self.gen_expr(expr.operand)
            if not ct.is_ptr:
                raise CompileError(f"cannot dereference {ct}", expr.line)
            if ct.pointee.is_void:  # type: ignore[union-attr]
                raise CompileError("cannot dereference void*", expr.line)
            return value, ct.pointee  # type: ignore[return-value]
        if isinstance(expr, A.Index):
            ptr, elem_ct = self._indexed_pointer(expr)
            return ptr, elem_ct
        if isinstance(expr, A.Member):
            return self._member_pointer(expr)
        raise CompileError("expression is not an lvalue", expr.line)

    def _indexed_pointer(self, expr: A.Index) -> tuple[Value, C.CType]:
        base, bct = self.gen_expr(expr.base)
        index, ict = self.gen_expr(expr.index)
        if not ict.is_int:
            raise CompileError("array index must be an integer", expr.line)
        if not bct.is_ptr:
            raise CompileError(f"cannot index {bct}", expr.line)
        elem = bct.pointee
        assert elem is not None
        if elem.is_void:
            raise CompileError("cannot index void*", expr.line)
        index = self.convert(index, ict, C.LONG, expr.line)
        p = self.b.gep(
            PointerType(elem.memory_type()), base, index, elem.sizeof(), 0
        )
        return p, elem

    def _member_pointer(self, expr: A.Member) -> tuple[Value, C.CType]:
        if expr.arrow:
            base, bct = self.gen_expr(expr.base)
            if not (bct.is_ptr and bct.pointee is not None and bct.pointee.is_struct):
                raise CompileError(f"-> on non-struct-pointer ({bct})", expr.line)
            sct = bct.pointee
        else:
            base, sct = self.gen_lvalue(expr.base)
            if not sct.is_struct:
                raise CompileError(f". on non-struct ({sct})", expr.line)
        try:
            idx, fct = sct.field(expr.field)
        except KeyError as e:
            raise CompileError(str(e), expr.line) from None
        offset = sct.field_offset(idx)
        p = self.b.gep(
            PointerType(fct.memory_type()), base, self.b.const_i64(0), 0, offset
        )
        return p, fct

    # -- rvalues -----------------------------------------------------------

    def gen_expr(self, expr: A.Expr) -> tuple[Value, C.CType]:
        if isinstance(expr, A.IntLit):
            ct = C.int_literal_type(expr)
            return ConstantInt(IntType(ct.bits), expr.value), ct
        if isinstance(expr, A.FloatLit):
            return ConstantFloat(FloatType(64), expr.value), C.DOUBLE
        if isinstance(expr, A.NullLit):
            return ConstantNull(C.VOID_PTR.value_type()), C.VOID_PTR  # type: ignore[arg-type]
        if isinstance(expr, A.StringLit):
            return self._string_pointer(expr)
        if isinstance(expr, A.Ident):
            return self._load_identifier(expr)
        if isinstance(expr, A.Unary):
            return self.gen_unary(expr)
        if isinstance(expr, A.Binary):
            return self.gen_binary(expr)
        if isinstance(expr, A.Assign):
            return self.gen_assign(expr)
        if isinstance(expr, A.Conditional):
            return self.gen_conditional(expr)
        if isinstance(expr, A.CastExpr):
            value, src = self.gen_expr(expr.operand)
            dst = self.resolve_type(expr.target)
            return self.explicit_cast(value, src, dst, expr.line), dst
        if isinstance(expr, A.SizeofType):
            return (
                ConstantInt(I64, self.resolve_type(expr.target).sizeof()),
                C.ULONG,
            )
        if isinstance(expr, A.SizeofExpr):
            ct = self._expr_ctype(expr.operand)
            return ConstantInt(I64, ct.sizeof()), C.ULONG
        if isinstance(expr, A.CallExpr):
            return self.gen_call(expr)
        if isinstance(expr, A.Index):
            ptr, elem = self._indexed_pointer(expr)
            return self._rvalue_from_pointer(ptr, elem, expr.line)
        if isinstance(expr, A.Member):
            ptr, fct = self._member_pointer(expr)
            return self._rvalue_from_pointer(ptr, fct, expr.line)
        raise CompileError(f"bad expression {expr!r}", expr.line)

    def _string_pointer(self, lit: A.StringLit) -> tuple[Value, C.CType]:
        self._string_counter += 1
        name = f".str.{self._string_counter}"
        data = lit.data + b"\x00"
        g = GlobalVariable(
            ConstantString(data).type, name, ConstantString(data), "internal", True
        )
        self.module.add_global(g)
        p = self.b.bitcast(g, PointerType(I8))
        return p, C.CHAR_PTR

    def _load_identifier(self, expr: A.Ident) -> tuple[Value, C.CType]:
        slot, ct = self.gen_lvalue(expr)
        if ct.is_array:
            return self._decay_array(slot, ct)
        if ct.is_struct:
            raise CompileError("cannot use struct as a value", expr.line)
        return self._load_slot(slot, ct, expr.name), ct

    def _decay_array(self, slot: Value, ct: C.CType) -> tuple[Value, C.CType]:
        elem = ct.element
        assert elem is not None
        p = self.b.gep(
            PointerType(elem.memory_type()), slot, self.b.const_i64(0), 0, 0
        )
        return p, C.pointer_to(elem)

    def _rvalue_from_pointer(
        self, ptr: Value, ct: C.CType, line: int
    ) -> tuple[Value, C.CType]:
        if ct.is_array:
            return self._decay_array(ptr, ct)
        if ct.is_struct:
            raise CompileError("cannot use struct as a value", line)
        return self._load_slot(ptr, ct), ct

    def _expr_ctype(self, expr: A.Expr) -> C.CType:
        """Type of an expression without emitting code (best effort for sizeof)."""
        if isinstance(expr, A.Ident):
            assert self._scope is not None
            hit = self._scope.lookup(expr.name)
            if hit is not None:
                return hit[1]
            gct = self.globals.get(expr.name)
            if gct is not None:
                return gct
            raise CompileError(f"undefined variable {expr.name!r}", expr.line)
        if isinstance(expr, A.Unary) and expr.op == "*":
            inner = self._expr_ctype(expr.operand)
            if not inner.is_ptr or inner.pointee is None:
                raise CompileError("cannot dereference non-pointer", expr.line)
            return inner.pointee
        if isinstance(expr, A.Member):
            base = self._expr_ctype(expr.base)
            sct = base.pointee if expr.arrow else base
            if sct is None or not sct.is_struct:
                raise CompileError("member of non-struct", expr.line)
            return sct.field(expr.field)[1]
        if isinstance(expr, A.Index):
            base = self._expr_ctype(expr.base)
            inner = base.element if base.is_array else base.pointee
            if inner is None:
                raise CompileError("cannot index non-array", expr.line)
            return inner
        raise CompileError("unsupported sizeof operand", expr.line)

    # -- operators ------------------------------------------------------------

    def gen_unary(self, expr: A.Unary) -> tuple[Value, C.CType]:
        op = expr.op
        if op == "&":
            ptr, ct = self.gen_lvalue(expr.operand)
            # &arr is the array's address typed as pointer-to-element.
            if ct.is_array:
                return self._decay_array(ptr, ct)
            pct = C.pointer_to(ct)
            if ct.is_ptr:
                # Slot holds i64; pointer-to-pointer value is typed ptr(i64).
                return ptr, pct
            return ptr, pct
        if op == "*":
            ptr, ct = self.gen_lvalue(expr)
            return self._rvalue_from_pointer(ptr, ct, expr.line)
        if op in ("++", "--", "post++", "post--"):
            return self._gen_incdec(expr)
        value, ct = self.gen_expr(expr.operand)
        if op == "-":
            if ct.is_int:
                pct = C.promote(ct)
                value = self.convert(value, ct, pct, expr.line)
                zero = ConstantInt(IntType(pct.bits), 0)
                return self.b.sub(zero, value), pct
            if ct.is_float:
                # -0.0 - x, so that -(+0.0) is -0.0 as in C.
                zero = ConstantFloat(FloatType(ct.bits), -0.0)
                return self.b.binop("fsub", zero, value), ct
            raise CompileError(f"cannot negate {ct}", expr.line)
        if op == "~":
            if not ct.is_int:
                raise CompileError(f"cannot complement {ct}", expr.line)
            pct = C.promote(ct)
            value = self.convert(value, ct, pct, expr.line)
            ones = ConstantInt(IntType(pct.bits), -1)
            return self.b.xor(value, ones), pct
        if op == "!":
            c = self._to_i1(value, ct, expr.line)
            one = self.b.cast("zext", c, I32)
            return self.b.xor(one, ConstantInt(I32, 1)), C.INT
        raise CompileError(f"bad unary operator {op!r}", expr.line)

    def _gen_incdec(self, expr: A.Unary) -> tuple[Value, C.CType]:
        ptr, ct = self.gen_lvalue(expr.operand)
        old = self._load_slot(ptr, ct)
        if ct.is_int:
            one = ConstantInt(IntType(ct.bits), 1)
            new = (
                self.b.add(old, one)
                if "++" in expr.op
                else self.b.sub(old, one)
            )
        elif ct.is_ptr:
            assert ct.pointee is not None
            step = ct.pointee.sizeof() if not ct.pointee.is_void else 1
            delta = step if "++" in expr.op else -step
            new = self.b.gep(
                old.type, old, self.b.const_i64(1), delta, 0  # type: ignore[arg-type]
            )
        else:
            raise CompileError(f"cannot increment {ct}", expr.line)
        self._store_converted_value(new, ct, ptr)
        return (old if expr.op.startswith("post") else new), ct

    def gen_binary(self, expr: A.Expr) -> tuple[Value, C.CType]:
        assert isinstance(expr, A.Binary)
        op = expr.op
        if op == ",":
            self.gen_expr(expr.lhs)
            return self.gen_expr(expr.rhs)
        if op in ("&&", "||"):
            return self._gen_logical(expr)
        lhs, lct = self.gen_expr(expr.lhs)
        rhs, rct = self.gen_expr(expr.rhs)
        return self._binary_values(op, lhs, lct, rhs, rct, expr.line)

    def _binary_values(
        self, op: str, lhs: Value, lct: C.CType, rhs: Value, rct: C.CType, line: int
    ) -> tuple[Value, C.CType]:
        # Pointer arithmetic.
        if op in ("+", "-") and (lct.is_ptr or rct.is_ptr):
            return self._pointer_arith(op, lhs, lct, rhs, rct, line)
        if op in ("==", "!=", "<", "<=", ">", ">=") and lct.is_ptr and rct.is_ptr:
            li = self.b.ptrtoint(lhs, I64)
            ri = self.b.ptrtoint(rhs, I64)
            pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                    ">": "ugt", ">=": "uge"}[op]
            c = self.b.icmp(pred, li, ri)
            return self.b.cast("zext", c, I32), C.INT
        if op in ("==", "!=") and (lct.is_ptr or rct.is_ptr):
            # pointer vs null/integer-zero
            pv, ict, iv = (lhs, rct, rhs) if lct.is_ptr else (rhs, lct, lhs)
            if isinstance(iv, ConstantInt) and iv.value == 0 or isinstance(
                iv, ConstantNull
            ):
                null = ConstantNull(pv.type)  # type: ignore[arg-type]
                c = self.b.icmp("eq" if op == "==" else "ne", pv, null)
                return self.b.cast("zext", c, I32), C.INT
            raise CompileError("pointer compared against non-null integer", line)
        if not (lct.is_arith and rct.is_arith):
            raise CompileError(f"bad operands for {op!r}: {lct}, {rct}", line)
        common = C.usual_arithmetic(lct, rct)
        lhs = self.convert(lhs, lct, common, line)
        rhs = self.convert(rhs, rct, common, line)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if common.is_float:
                pred = {"==": "oeq", "!=": "une", "<": "olt", "<=": "ole",
                        ">": "ogt", ">=": "oge"}[op]
                c = self.b.fcmp(pred, lhs, rhs)
            else:
                if common.signed:
                    pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                            ">": "sgt", ">=": "sge"}[op]
                else:
                    pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                            ">": "ugt", ">=": "uge"}[op]
                c = self.b.icmp(pred, lhs, rhs)
            return self.b.cast("zext", c, I32), C.INT
        if common.is_float:
            ir_op = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}.get(op)
            if ir_op is None:
                raise CompileError(f"bad float operator {op!r}", line)
            return self.b.binop(ir_op, lhs, rhs), common
        ir_op = {
            "+": "add", "-": "sub", "*": "mul",
            "/": "sdiv" if common.signed else "udiv",
            "%": "srem" if common.signed else "urem",
            "&": "and", "|": "or", "^": "xor",
            "<<": "shl", ">>": "ashr" if common.signed else "lshr",
        }.get(op)
        if ir_op is None:
            raise CompileError(f"bad integer operator {op!r}", line)
        return self.b.binop(ir_op, lhs, rhs), common

    def _pointer_arith(
        self, op: str, lhs: Value, lct: C.CType, rhs: Value, rct: C.CType, line: int
    ) -> tuple[Value, C.CType]:
        if op == "-" and lct.is_ptr and rct.is_ptr:
            if not lct.same(rct):
                raise CompileError("subtracting unrelated pointers", line)
            size = lct.pointee.sizeof() if not lct.pointee.is_void else 1  # type: ignore[union-attr]
            li = self.b.ptrtoint(lhs, I64)
            ri = self.b.ptrtoint(rhs, I64)
            diff = self.b.sub(li, ri)
            if size > 1:
                diff = self.b.binop("sdiv", diff, self.b.const_i64(size))
            return diff, C.LONG
        if lct.is_ptr and rct.is_int:
            pv, pct, iv, ict = lhs, lct, rhs, rct
        elif rct.is_ptr and lct.is_int and op == "+":
            pv, pct, iv, ict = rhs, rct, lhs, lct
        else:
            raise CompileError(f"bad pointer arithmetic: {lct} {op} {rct}", line)
        size = pct.pointee.sizeof() if not pct.pointee.is_void else 1  # type: ignore[union-attr]
        iv = self.convert(iv, ict, C.LONG, line)
        scale = size if op == "+" else -size
        p = self.b.gep(pv.type, pv, iv, scale, 0)  # type: ignore[arg-type]
        return p, pct

    def _gen_logical(self, expr: A.Binary) -> tuple[Value, C.CType]:
        fn = self._current.ir  # type: ignore[union-attr]
        is_and = expr.op == "&&"
        rhs_bb = fn.add_block("land.rhs" if is_and else "lor.rhs")
        end_bb = fn.add_block("land.end" if is_and else "lor.end")
        lhs_c = self.gen_condition(expr.lhs)
        lhs_end = self.b.block
        if is_and:
            self.b.cond_br(lhs_c, rhs_bb, end_bb)
        else:
            self.b.cond_br(lhs_c, end_bb, rhs_bb)
        self.b.position_at_end(rhs_bb)
        rhs_c = self.gen_condition(expr.rhs)
        rhs_end = self.b.block
        self.b.br(end_bb)
        self.b.position_at_end(end_bb)
        phi = self.b.phi(I1)
        phi.add_incoming(self.b.const_bool(not is_and), lhs_end)
        phi.add_incoming(rhs_c, rhs_end)
        return self.b.cast("zext", phi, I32), C.INT

    def gen_conditional(self, expr: A.Conditional) -> tuple[Value, C.CType]:
        fn = self._current.ir  # type: ignore[union-attr]
        cond = self.gen_condition(expr.cond)
        then_bb = fn.add_block("cond.then")
        else_bb = fn.add_block("cond.else")
        end_bb = fn.add_block("cond.end")
        self.b.cond_br(cond, then_bb, else_bb)
        self.b.position_at_end(then_bb)
        tval, tct = self.gen_expr(expr.then)
        then_end = self.b.block
        self.b.position_at_end(else_bb)
        fval, fct = self.gen_expr(expr.other)
        else_end = self.b.block
        # Find the common type.
        if tct.is_arith and fct.is_arith:
            common = C.usual_arithmetic(tct, fct)
        elif tct.is_ptr and fct.is_ptr:
            common = tct if not tct.pointee.is_void else fct  # type: ignore[union-attr]
        else:
            raise CompileError(f"?: arms disagree: {tct} vs {fct}", expr.line)
        self.b.position_at_end(then_end)
        tval = self.convert(tval, tct, common, expr.line)
        self.b.br(end_bb)
        self.b.position_at_end(else_end)
        fval = self.convert(fval, fct, common, expr.line)
        self.b.br(end_bb)
        self.b.position_at_end(end_bb)
        phi = self.b.phi(common.value_type())
        phi.add_incoming(tval, then_end)
        phi.add_incoming(fval, else_end)
        return phi, common

    def gen_assign(self, expr: A.Assign) -> tuple[Value, C.CType]:
        ptr, ct = self.gen_lvalue(expr.lhs)
        if ct.is_array or ct.is_struct:
            raise CompileError(f"cannot assign to {ct}", expr.line)
        if expr.op == "=":
            value, vct = self.gen_expr(expr.rhs)
            value = self.convert(value, vct, ct, expr.line)
        else:
            op = expr.op[:-1]  # '+=' -> '+'
            old = self._load_slot(ptr, ct)
            rhs, rct = self.gen_expr(expr.rhs)
            value, vct = self._binary_values(op, old, ct, rhs, rct, expr.line)
            value = self.convert(value, vct, ct, expr.line)
        self._store_converted_value(value, ct, ptr)
        return value, ct

    def gen_call(self, expr: A.CallExpr) -> tuple[Value, C.CType]:
        info = self.functions.get(expr.name)
        if info is None:
            raise CompileError(f"call to undeclared function {expr.name!r}", expr.line)
        if len(expr.args) < len(info.params) or (
            len(expr.args) > len(info.params) and not info.vararg
        ):
            raise CompileError(
                f"{expr.name} expects {len(info.params)} args, got {len(expr.args)}",
                expr.line,
            )
        args: list[Value] = []
        for i, arg_expr in enumerate(expr.args):
            value, vct = self.gen_expr(arg_expr)
            if i < len(info.params):
                value = self.convert(value, vct, info.params[i], expr.line)
            else:
                # Default argument promotions for varargs.
                if vct.is_int and vct.bits < 64:
                    value = self.convert(value, vct, C.LONG if vct.signed else C.ULONG, expr.line)
                elif vct.is_float and vct.bits == 32:
                    value = self.convert(value, vct, C.DOUBLE, expr.line)
                elif vct.is_ptr:
                    value = self.b.ptrtoint(value, I64)
            args.append(value)
        ret = self.b.call(info.ir, args)
        return ret, info.ret


def compile_source(source: str, module_name: str = "module") -> Module:
    """Front-end entry: parse and lower mini-C source into an IR module."""
    from .parser import parse

    unit = parse(source)
    gen = CodeGenerator(module_name)
    return gen.generate(unit)


__all__ = ["CodeGenerator", "CompileError", "compile_source"]

"""Recursive-descent parser for mini-C.

Grammar summary (C subset)::

    unit      := (struct_def | enum_def | global | function)*
    struct_def:= 'struct' IDENT '{' (type declarator ';')+ '}' ';'
    enum_def  := 'enum' '{' IDENT ('=' conditional)? (',' ...)* '}' ';'
    function  := quals type declarator '(' params ')' (block | ';')
    global    := quals type declarator ('=' init)? ';'
    stmt      := block | if | while | do-while | for | switch | return
               | break | continue | decl | expr ';' | asm
    expr      := assignment with full C operator precedence, short-circuit
                 '&&'/'||', '?:', casts, sizeof, pointer arithmetic

Enum constants are resolved at parse time so they can appear in ``case``
labels and array sizes (the driver's register maps rely on this).
"""

from __future__ import annotations

from typing import Optional

from . import cast as A
from . import ctypes_ as C
from .constexpr import fold
from .lexer import Token, tokenize


class CParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_BASE_TYPES = frozenset({"void", "char", "short", "int", "long", "float", "double"})
_TYPE_STARTERS = _BASE_TYPES | {"unsigned", "signed", "struct", "const", "volatile"}


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.enum_constants: dict[str, int] = {}
        self.struct_names: set[str] = set()

    # -- token helpers ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise CParseError(f"expected {want!r}, got {tok.text!r}", tok.line)
        return self.advance()

    def error(self, msg: str) -> CParseError:
        return CParseError(msg, self.cur.line)

    # -- types --------------------------------------------------------------

    def at_type(self) -> bool:
        tok = self.cur
        return tok.kind == "kw" and tok.text in _TYPE_STARTERS

    def parse_base_type(self) -> A.TypeExpr:
        line = self.cur.line
        # qualifiers are accepted and ignored semantically (const is used
        # for globals only, captured by the caller)
        while self.accept("kw", "const") or self.accept("kw", "volatile"):
            pass
        unsigned = False
        if self.accept("kw", "unsigned"):
            unsigned = True
        elif self.accept("kw", "signed"):
            pass
        if self.accept("kw", "struct"):
            name = self.expect("ident").text
            base: A.TypeExpr = A.StructRef(name, line)
        else:
            tok = self.cur
            if tok.kind == "kw" and tok.text in _BASE_TYPES:
                self.advance()
                name = tok.text
                if name == "long" and self.accept("kw", "long"):
                    name = "long"  # long long == long (both i64)
                if name in ("char", "short", "int", "long") and self.accept("kw", "int"):
                    pass  # 'short int', 'long int'
                base = A.NamedType(name, unsigned, line)
            elif unsigned:
                base = A.NamedType("int", True, line)
            else:
                raise self.error(f"expected type, got {tok.text!r}")
        while self.accept("kw", "const") or self.accept("kw", "volatile"):
            pass
        return base

    def parse_pointers(self, base: A.TypeExpr) -> A.TypeExpr:
        while self.cur.kind == "punct" and self.cur.text == "*":
            line = self.advance().line
            base = A.PointerTo(base, line)
            while self.accept("kw", "const") or self.accept("kw", "volatile"):
                pass
        return base

    def parse_type(self) -> A.TypeExpr:
        """A full abstract type (for casts and sizeof): base + pointers."""
        return self.parse_pointers(self.parse_base_type())

    def parse_array_suffix(self, base: A.TypeExpr) -> A.TypeExpr:
        dims: list[int] = []
        while self.accept("punct", "["):
            dims.append(self.parse_integer_constant())
            self.expect("punct", "]")
        for count in reversed(dims):
            base = A.ArrayOf(base, count, base.line)
        return base

    # -- integer constants (array sizes, enum values, case labels) ----------

    def parse_integer_constant(self) -> int:
        """Parse a conditional expression and fold it now: later
        declarations use the value.  The same evaluator folds global
        initializers in codegen."""
        expr = self.parse_conditional()
        value = fold(expr, CParseError, self._const_type)
        if not isinstance(value, int):
            raise CParseError("expected integer constant expression", expr.line)
        return value

    def _const_type(self, te: A.TypeExpr) -> C.CType:
        """A type named in a parse-time constant, resolved as codegen
        resolves types.  Struct layouts are computed by codegen, so
        ``sizeof(struct T)`` is a constant only in a global initializer;
        a pointer to a declared struct is sized here."""
        ct = C.resolve(te, self._declared_struct, CParseError)
        if ct.is_struct:
            raise CParseError(
                f"sizeof(struct {ct.name}) is not known while parsing", te.line
            )
        return ct

    def _declared_struct(self, name: str, line: int) -> C.CType:
        """A struct as far as the parser knows it: by name only."""
        if name not in self.struct_names:
            raise CParseError(f"unknown struct {name!r}", line)
        return C.CType("struct", name=name, fields=[])

    # -- top level ------------------------------------------------------------

    def parse_unit(self) -> A.TranslationUnit:
        items: list[A.Node] = []
        while self.cur.kind != "eof":
            item = self.parse_top_level()
            if item is not None:
                items.append(item)
        return A.TranslationUnit(items)

    def parse_top_level(self) -> Optional[A.Node]:
        line = self.cur.line
        if self.cur.kind == "kw" and self.cur.text == "enum":
            return self.parse_enum()
        if (
            self.cur.kind == "kw"
            and self.cur.text == "struct"
            and self.peek().kind == "ident"
            and self.peek(2).text == "{"
        ):
            return self.parse_struct()
        # qualifiers
        is_static = is_extern = is_export = is_const = False
        while True:
            if self.accept("kw", "static"):
                is_static = True
            elif self.accept("kw", "extern"):
                is_extern = True
            elif self.accept("kw", "__export"):
                is_export = True
            elif self.cur.kind == "kw" and self.cur.text == "const":
                is_const = True
                self.advance()
            else:
                break
        base = self.parse_base_type()
        decl_type = self.parse_pointers(base)
        name = self.expect("ident").text
        if self.cur.kind == "punct" and self.cur.text == "(":
            return self.parse_function(
                decl_type, name, is_static, is_extern, is_export, line
            )
        decl_type = self.parse_array_suffix(decl_type)
        init: Optional[A.Expr] = None
        if self.accept("punct", "="):
            init = self.parse_assignment()
        self.expect("punct", ";")
        return A.GlobalDecl(
            decl_type, name, init, is_static, is_extern, is_const, line,
            is_export=is_export,
        )

    def parse_struct(self) -> A.StructDef:
        line = self.expect("kw", "struct").line
        name = self.expect("ident").text
        self.struct_names.add(name)
        self.expect("punct", "{")
        fields: list[tuple[A.TypeExpr, str]] = []
        while not self.accept("punct", "}"):
            base = self.parse_base_type()
            while True:
                ftype = self.parse_pointers(base)
                fname = self.expect("ident").text
                ftype = self.parse_array_suffix(ftype)
                fields.append((ftype, fname))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ";")
        self.expect("punct", ";")
        return A.StructDef(name, fields, line)

    def parse_enum(self) -> A.EnumDef:
        line = self.expect("kw", "enum").line
        self.accept("ident")  # optional tag, unused
        self.expect("punct", "{")
        constants: list[tuple[str, int]] = []
        next_value = 0
        while not self.accept("punct", "}"):
            cname = self.expect("ident").text
            if self.accept("punct", "="):
                next_value = self.parse_integer_constant()
            constants.append((cname, next_value))
            self.enum_constants[cname] = next_value
            next_value += 1
            if not self.accept("punct", ","):
                self.expect("punct", "}")
                break
        self.expect("punct", ";")
        return A.EnumDef(constants, line)

    def parse_function(
        self,
        ret: A.TypeExpr,
        name: str,
        is_static: bool,
        is_extern: bool,
        is_export: bool,
        line: int,
    ) -> A.FunctionDef:
        self.expect("punct", "(")
        params: list[A.Param] = []
        vararg = False
        if not self.accept("punct", ")"):
            if self.cur.kind == "kw" and self.cur.text == "void" and self.peek().text == ")":
                self.advance()
            else:
                while True:
                    if self.accept("punct", "..."):
                        vararg = True
                        break
                    pline = self.cur.line
                    ptype = self.parse_pointers(self.parse_base_type())
                    pname_tok = self.accept("ident")
                    pname = pname_tok.text if pname_tok else f"arg{len(params)}"
                    # Array parameters decay to pointers.
                    if self.cur.kind == "punct" and self.cur.text == "[":
                        self.advance()
                        self.accept("int")
                        self.expect("punct", "]")
                        ptype = A.PointerTo(ptype, pline)
                    params.append(A.Param(ptype, pname, pline))
                    if not self.accept("punct", ","):
                        break
            self.expect("punct", ")")
        if self.accept("punct", ";"):
            body = None
        else:
            body = self.parse_block()
        return A.FunctionDef(
            ret, name, params, body, is_static, is_extern, is_export, vararg, line
        )

    # -- statements ------------------------------------------------------------

    def parse_block(self) -> A.Block:
        line = self.expect("punct", "{").line
        stmts: list[A.Stmt] = []
        while not self.accept("punct", "}"):
            stmts.append(self.parse_statement())
        return A.Block(stmts, line)

    def parse_statement(self) -> A.Stmt:
        tok = self.cur
        line = tok.line
        if tok.kind == "punct" and tok.text == "{":
            return self.parse_block()
        if tok.kind == "kw":
            text = tok.text
            if text == "if":
                self.advance()
                self.expect("punct", "(")
                cond = self.parse_expression()
                self.expect("punct", ")")
                then = self.parse_statement()
                other = self.parse_statement() if self.accept("kw", "else") else None
                return A.If(cond, then, other, line)
            if text == "while":
                self.advance()
                self.expect("punct", "(")
                cond = self.parse_expression()
                self.expect("punct", ")")
                return A.While(cond, self.parse_statement(), line)
            if text == "do":
                self.advance()
                body = self.parse_statement()
                self.expect("kw", "while")
                self.expect("punct", "(")
                cond = self.parse_expression()
                self.expect("punct", ")")
                self.expect("punct", ";")
                return A.DoWhile(body, cond, line)
            if text == "for":
                self.advance()
                self.expect("punct", "(")
                init: Optional[A.Stmt] = None
                if not self.accept("punct", ";"):
                    if self.at_type():
                        init = self.parse_local_decl()
                    else:
                        init = A.ExprStmt(self.parse_expression(), line)
                        self.expect("punct", ";")
                cond = None
                if not self.accept("punct", ";"):
                    cond = self.parse_expression()
                    self.expect("punct", ";")
                step = None
                if not (self.cur.kind == "punct" and self.cur.text == ")"):
                    step = self.parse_expression()
                self.expect("punct", ")")
                return A.For(init, cond, step, self.parse_statement(), line)
            if text == "switch":
                return self.parse_switch()
            if text == "return":
                self.advance()
                value = None
                if not (self.cur.kind == "punct" and self.cur.text == ";"):
                    value = self.parse_expression()
                self.expect("punct", ";")
                return A.Return(value, line)
            if text == "break":
                self.advance()
                self.expect("punct", ";")
                return A.Break(line)
            if text == "continue":
                self.advance()
                self.expect("punct", ";")
                return A.Continue(line)
            if text == "__asm__":
                self.advance()
                self.expect("punct", "(")
                s = self.expect("string")
                self.expect("punct", ")")
                self.expect("punct", ";")
                return A.AsmStmt(s.value.decode(), line)
            if text in _TYPE_STARTERS or text == "static":
                return self.parse_local_decl()
        expr = self.parse_expression()
        self.expect("punct", ";")
        return A.ExprStmt(expr, line)

    def parse_local_decl(self) -> A.Stmt:
        line = self.cur.line
        self.accept("kw", "static")  # block-static treated as plain local
        base = self.parse_base_type()
        decls: list[A.Stmt] = []
        while True:
            dtype = self.parse_pointers(base)
            name = self.expect("ident").text
            dtype = self.parse_array_suffix(dtype)
            init = self.parse_assignment() if self.accept("punct", "=") else None
            decls.append(A.LocalDecl(dtype, name, init, line))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ";")
        if len(decls) == 1:
            return decls[0]
        return A.Block(decls, line)

    def parse_switch(self) -> A.SwitchStmt:
        line = self.expect("kw", "switch").line
        self.expect("punct", "(")
        value = self.parse_expression()
        self.expect("punct", ")")
        self.expect("punct", "{")
        cases: list[A.SwitchCase] = []
        while not self.accept("punct", "}"):
            values: list[int] = []
            is_default = False
            cline = self.cur.line
            saw_label = False
            while True:
                if self.accept("kw", "case"):
                    values.append(self.parse_integer_constant())
                    self.expect("punct", ":")
                    saw_label = True
                elif self.accept("kw", "default"):
                    self.expect("punct", ":")
                    is_default = True
                    saw_label = True
                else:
                    break
            if not saw_label:
                raise self.error("expected 'case' or 'default' in switch")
            body: list[A.Stmt] = []
            while not (
                (self.cur.kind == "kw" and self.cur.text in ("case", "default"))
                or (self.cur.kind == "punct" and self.cur.text == "}")
            ):
                body.append(self.parse_statement())
            cases.append(A.SwitchCase(values, body, is_default, cline))
        return A.SwitchStmt(value, cases, line)

    # -- expressions -------------------------------------------------------------

    def parse_expression(self) -> A.Expr:
        expr = self.parse_assignment()
        while self.accept("punct", ","):
            rhs = self.parse_assignment()
            expr = A.Binary(",", expr, rhs, rhs.line)
        return expr

    _ASSIGN_OPS = frozenset(
        {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
    )

    def parse_assignment(self) -> A.Expr:
        lhs = self.parse_conditional()
        tok = self.cur
        if tok.kind == "punct" and tok.text in self._ASSIGN_OPS:
            self.advance()
            rhs = self.parse_assignment()
            return A.Assign(tok.text, lhs, rhs, tok.line)
        return lhs

    def parse_conditional(self) -> A.Expr:
        cond = self.parse_binary(0)
        if self.accept("punct", "?"):
            then = self.parse_expression()
            self.expect("punct", ":")
            other = self.parse_conditional()
            return A.Conditional(cond, then, other, cond.line)
        return cond

    #: Binary operators by precedence level, loosest first.
    _PRECEDENCE = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]
    _LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

    def parse_binary(self, level: int) -> A.Expr:
        """Operators of precedence ``level`` or tighter, left-associative
        (precedence climbing: one call per operand).  Only punctuation
        tokens can carry an operator's text, so the text alone decides."""
        lhs = self.parse_unary()
        levels = self._LEVEL
        while True:
            op = self.cur
            op_level = levels.get(op.text, -1)
            if op_level < level:
                return lhs
            self.advance()
            rhs = self.parse_binary(op_level + 1)
            lhs = A.Binary(op.text, lhs, rhs, op.line)

    def parse_unary(self) -> A.Expr:
        tok = self.cur
        if tok.kind == "punct" and tok.text in ("!", "~", "-", "+", "*", "&"):
            self.advance()
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return A.Unary(tok.text, operand, tok.line)
        if tok.kind == "punct" and tok.text in ("++", "--"):
            self.advance()
            return A.Unary(tok.text, self.parse_unary(), tok.line)
        if tok.kind == "kw" and tok.text == "sizeof":
            self.advance()
            self.expect("punct", "(")
            if self.at_type():
                target = self.parse_type()
                self.expect("punct", ")")
                return A.SizeofType(target, tok.line)
            operand = self.parse_expression()
            self.expect("punct", ")")
            return A.SizeofExpr(operand, tok.line)
        if tok.kind == "punct" and tok.text == "(":
            # Cast or parenthesized expression.
            save = self.pos
            self.advance()
            if self.at_type():
                target = self.parse_type()
                self.expect("punct", ")")
                operand = self.parse_unary()
                return A.CastExpr(target, operand, tok.line)
            self.pos = save
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.cur
            if tok.kind == "punct" and tok.text == "[":
                self.advance()
                index = self.parse_expression()
                self.expect("punct", "]")
                expr = A.Index(expr, index, tok.line)
            elif tok.kind == "punct" and tok.text == ".":
                self.advance()
                field = self.expect("ident").text
                expr = A.Member(expr, field, False, tok.line)
            elif tok.kind == "punct" and tok.text == "->":
                self.advance()
                field = self.expect("ident").text
                expr = A.Member(expr, field, True, tok.line)
            elif tok.kind == "punct" and tok.text in ("++", "--"):
                self.advance()
                expr = A.Unary("post" + tok.text, expr, tok.line)
            else:
                break
        return expr

    def parse_primary(self) -> A.Expr:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            text = tok.text.lower()
            return A.IntLit(
                tok.value, tok.line,
                is_long="l" in text, is_unsigned="u" in text,
                is_decimal=not text.startswith("0"),
            )
        if tok.kind == "float":
            self.advance()
            return A.FloatLit(tok.value, tok.line)
        if tok.kind == "char":
            self.advance()
            return A.IntLit(tok.value, tok.line)
        if tok.kind == "string":
            self.advance()
            return A.StringLit(tok.value, tok.line)
        if tok.kind == "kw" and tok.text == "null":
            self.advance()
            return A.NullLit(tok.line)
        if tok.kind == "ident":
            self.advance()
            if self.cur.kind == "punct" and self.cur.text == "(":
                self.advance()
                args: list[A.Expr] = []
                if not self.accept("punct", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("punct", ","):
                            break
                    self.expect("punct", ")")
                return A.CallExpr(tok.text, args, tok.line)
            if tok.text in self.enum_constants:
                return A.IntLit(self.enum_constants[tok.text], tok.line)
            return A.Ident(tok.text, tok.line)
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect("punct", ")")
            return expr
        raise self.error(f"unexpected token {tok.text!r} in expression")


def parse(source: str) -> A.TranslationUnit:
    """Parse mini-C source into an AST."""
    return Parser(source).parse_unit()


__all__ = ["CParseError", "Parser", "parse"]

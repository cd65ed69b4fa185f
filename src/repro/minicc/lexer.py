"""Lexer for the mini-C front end.

Mini-C is the C subset the reproduction's kernel modules are written in
(standing in for the C the e1000e driver is written in).  The lexer is a
single-pass scanner producing a flat token list; there is no preprocessor
— constants use ``enum`` and ``static const`` instead of ``#define``.
"""

from __future__ import annotations

import re


KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double",
        "unsigned", "signed", "struct", "enum", "sizeof",
        "if", "else", "while", "do", "for", "return", "break", "continue",
        "switch", "case", "default",
        "static", "extern", "const", "volatile",
        "__export", "__asm__", "null",
    }
)

PUNCTUATION = (
    # Three-char operators first so maximal munch works.
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
)

# One master pattern: each ``match`` consumes one token (with the blanks
# that follow it on its line), whitespace run or comment.  Alternatives
# are tried in order (first match wins), so hex precedes float precedes
# decimal, as maximal munch needs.  Quotes only select the hand-written
# literal scanners below.
_TOKEN_RE = re.compile(
    "(?:" + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("ws", r"[ \t\r\n]+"),
            ("line_comment", r"//[^\n]*"),
            ("block_comment", r"/\*"),
            ("quote", r"['\"]"),
            ("hex", r"0[xX][0-9a-fA-F]+[uUlL]*"),
            ("float", r"\d+\.\d+(?:[eE][-+]?\d+)?[fF]?|\d+[eE][-+]?\d+[fF]?"),
            ("int", r"\d+[uUlL]*"),
            ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
            ("punct", "|".join(re.escape(p) for p in PUNCTUATION)),
        )
    ) + r")[ \t\r]*"
)


class Token:
    """A lexical token with source position for diagnostics."""

    __slots__ = ("kind", "text", "value", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int, value=None):
        self.kind = kind  # 'kw' | 'ident' | 'int' | 'float' | 'char' | 'string' | 'punct' | 'eof'
        self.text = text
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, L{self.line})"


class LexError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}


def _scan_escape(src: str, i: int, line: int, col: int) -> tuple[int, int]:
    """Scan an escape sequence starting after the backslash.

    Returns (byte_value, next_index).
    """
    if i >= len(src):
        raise LexError("escape at end of input", line, col)
    c = src[i]
    if c == "x":
        # Unlike C's maximal munch, mini-C caps \x at two digits so
        # "\x00c" means NUL followed by 'c'.
        j = i + 1
        while j < len(src) and j - i <= 2 and src[j] in "0123456789abcdefABCDEF":
            j += 1
        if j == i + 1:
            raise LexError("empty hex escape", line, col)
        return int(src[i + 1 : j], 16) & 0xFF, j
    if c in _ESCAPES:
        return _ESCAPES[c], i + 1
    raise LexError(f"unknown escape \\{c}", line, col)


def tokenize(source: str) -> list[Token]:
    """Tokenize mini-C source; raises :class:`LexError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    keywords = KEYWORDS
    i = 0
    line = 1
    line_start = 0
    n = len(source)
    while i < n:
        m = match(source, i)
        col = i - line_start + 1
        if m is None:
            raise LexError(f"unexpected character {source[i]!r}", line, col)
        kind = m.lastgroup
        end = m.end()
        if kind == "ident":
            text = m.group(kind)
            append(Token("kw" if text in keywords else "ident", text, line, col))
        elif kind == "punct":
            append(Token("punct", m.group(kind), line, col))
        elif kind == "ws":
            nl = source.rfind("\n", i, end)
            if nl >= 0:
                line += source.count("\n", i, end)
                line_start = nl + 1
        elif kind == "int":
            text = m.group(kind)
            digits = text.rstrip("uUlL")
            base = 8 if digits[0] == "0" else 10  # C11 6.4.4.1: ``0`` too
            if base == 8 and digits.strip("01234567"):
                raise LexError(f"invalid digit in octal constant {text!r}",
                               line, col)
            append(Token("int", text, line, col, int(digits, base)))
        elif kind == "hex":
            text = m.group(kind)
            append(Token("int", text, line, col, int(text.rstrip("uUlL"), 16)))
        elif kind == "float":
            text = m.group(kind)
            append(Token("float", text, line, col, float(text.rstrip("fF"))))
        elif kind == "block_comment":
            j = source.find("*/", end)
            if j < 0:
                raise LexError("unterminated block comment", line, col)
            nl = source.rfind("\n", i, j)
            if nl >= 0:
                line += source.count("\n", i, j)
                # Recompute line_start so columns stay sane after the comment.
                line_start = nl + 1
            end = j + 2
        elif kind == "quote":
            end = _scan_literal(source, i, line, col, append)
        # line_comment: skip to (not past) the newline.
        i = end
    tokens.append(Token("eof", "", line, i - line_start + 1))
    return tokens


def _scan_literal(source: str, i: int, line: int, col: int, append) -> int:
    """Scan the char or string literal opening at ``source[i]``; append
    its token and return the index after it."""
    n = len(source)
    j = i + 1
    if source[i] == "'":
        if j < n and source[j] == "\\":
            value, j = _scan_escape(source, j + 1, line, col)
        elif j < n:
            value = ord(source[j])
            j += 1
        else:
            raise LexError("unterminated char literal", line, col)
        if j >= n or source[j] != "'":
            raise LexError("unterminated char literal", line, col)
        append(Token("char", source[i : j + 1], line, col, value))
        return j + 1
    data = bytearray()
    while j < n and source[j] != '"':
        if source[j] == "\\":
            b, j = _scan_escape(source, j + 1, line, col)
            data.append(b)
        elif source[j] == "\n":
            raise LexError("newline in string literal", line, col)
        else:
            data.append(ord(source[j]))
            j += 1
    if j >= n:
        raise LexError("unterminated string literal", line, col)
    append(Token("string", source[i : j + 1], line, col, bytes(data)))
    return j + 1


__all__ = ["KEYWORDS", "LexError", "Token", "tokenize"]

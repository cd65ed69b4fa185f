"""Lexer tests."""

import pytest

from repro.minicc.lexer import LexError, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


class TestBasics:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_keywords_vs_idents(self):
        toks = tokenize("int foo while whilefoo")
        assert [t.kind for t in toks[:-1]] == ["kw", "ident", "kw", "ident"]

    def test_decimal_int(self):
        tok = tokenize("12345")[0]
        assert tok.kind == "int" and tok.value == 12345

    def test_hex_int(self):
        tok = tokenize("0xFF")[0]
        assert tok.value == 255

    def test_octal_int(self):
        # A leading zero means octal (C11 6.4.4.1); ``0`` itself is one.
        toks = tokenize("0 0777 010u")
        assert [t.value for t in toks[:-1]] == [0, 511, 8]

    @pytest.mark.parametrize("text", ["08", "09", "0778"])
    def test_octal_rejects_8_and_9(self, text):
        with pytest.raises(LexError, match="octal"):
            tokenize(text)

    def test_int_suffixes(self):
        toks = tokenize("1UL 2u 3ll")
        assert [t.value for t in toks[:-1]] == [1, 2, 3]
        assert toks[0].text == "1UL"

    def test_float(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == "float" and tok.value == 3.25

    def test_float_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0

    def test_char_literal(self):
        assert tokenize("'A'")[0].value == 65

    def test_char_escapes(self):
        assert tokenize(r"'\n'")[0].value == 10
        assert tokenize(r"'\0'")[0].value == 0
        assert tokenize(r"'\x41'")[0].value == 0x41

    def test_string_literal(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind == "string" and tok.value == b"hello"

    def test_string_escapes(self):
        assert tokenize(r'"a\tb\x00c"')[0].value == b"a\tb\x00c"

    def test_line_tracking(self):
        toks = tokenize("a\nb\n  c")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]
        assert toks[2].col == 3


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_line_numbers_after_block_comment(self):
        toks = tokenize("/* a\nb\nc */ x")
        assert toks[0].line == 3


class TestOperators:
    def test_maximal_munch(self):
        assert texts("a<<=b") == ["a", "<<=", "b"]
        assert texts("a<<b") == ["a", "<<", "b"]
        assert texts("a< <b") == ["a", "<", "<", "b"]
        assert texts("x---y") == ["x", "--", "-", "y"]

    def test_arrow_vs_minus(self):
        assert texts("p->f - q") == ["p", "->", "f", "-", "q"]

    def test_ellipsis(self):
        assert "..." in texts("f(int a, ...)")


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("int a = `b`;")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')

"""Every place C requires a constant accepts the same expressions.

Array sizes, enum values and case labels are folded by the parser and
global initializers by codegen, through one evaluator
(``repro.minicc.constexpr.fold``), so an expression one site accepts,
every site accepts with the same value, and one every site refuses is
refused with the same message.
"""

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.ir.types import I64
from repro.kernel import Kernel
from repro.minicc import CompileError, CParseError, compile_source

ACCEPTED = [
    ("!0", 1),
    ("1 ? 4 : 5", 4),
    ("0 ? 4 : 5", 5),
    ("!0 ? sizeof(short) : 9", 2),
    ("sizeof(long)", 8),
    ("sizeof(unsigned char *)", 8),
    ("sizeof(char) + 1", 2),
    ("-(-3)", 3),
    ("~~5", 5),
    ("7 / 2", 3),
    ("-7 % 3 + 2", 1),
    ("1 << 4", 16),
    ("256 >> 4", 16),
    ("6 & 3", 2),
    ("4 | 1", 5),
    ("6 ^ 3", 5),
    ("(1 + 2) * 3 - 1", 8),
    ("'a' - 96", 1),
    ("sizeof(struct S *)", 8),
    ("1 == 1", 1),
    ("(2 < 3) + (1 && 0) + (0 || 5)", 2),
    ("-1 < 0u ? 5 : 6", 6),
    ("(long)1", 1),
    ("(unsigned char)258", 2),
    ("(int)3.7 + (short)65537", 4),
    ("(unsigned)-1 > 0", 1),
]

REFUSED = [
    ("x", "not a compile-time constant"),
    ("1 / 0", "division by zero"),
    ("5 % (2 - 2)", "division by zero"),
    ("2.5 & 1", "bad float operator '&'"),
    ("~1.5", "cannot complement double"),
    ("1 << 64", "shift count out of range"),
    ("1 >> -1", "shift count out of range"),
    ("sizeof(struct Nope *)", "unknown struct 'Nope'"),
    ("(char *)0 + 1", "cast to char\\* is not an arithmetic constant"),
    ("(int)(1e308 * 10)", "inf has no value in int"),
]

#: Every site sees one declared struct, ``S``, on the same line.
STRUCT = "struct S { long x; long y; };"


def array_size(expr):
    m = compile_source(f"{STRUCT} long a[{expr}];")
    return m.globals["a"].value_type.count


def enum_value(expr):
    m = compile_source(f"{STRUCT} enum {{ A = {expr} }}; long g = A;")
    return m.globals["g"].initializer.signed


def case_label(expr):
    src = (
        f"{STRUCT} __export long f(long x) {{ switch (x) {{ "
        f"case {expr}: return 1; default: return 0; }} }}"
    )
    kernel = Kernel()
    loaded = kernel.insmod(compile_module(
        src, CompileOptions(module_name="case", protect=False)))
    hits = [v for v in range(-1, 20) if kernel.run_function(loaded, "f", [v])]
    assert len(hits) == 1
    return hits[0]


def global_initializer(expr):
    m = compile_source(f"{STRUCT} long g = {expr};")
    return m.globals["g"].initializer.signed


SITES = [array_size, enum_value, case_label, global_initializer]


@pytest.mark.parametrize("site", SITES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("expr, value", ACCEPTED)
def test_every_site_accepts(site, expr, value):
    assert site(expr) == value


@pytest.mark.parametrize("site", SITES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("expr, message", REFUSED)
def test_every_site_refuses_alike(site, expr, message):
    with pytest.raises((CParseError, CompileError), match=message) as info:
        site(expr)
    assert info.value.line == 1


PARSE_TIME_SITES = [array_size, enum_value, case_label]


@pytest.mark.parametrize("site", PARSE_TIME_SITES, ids=lambda f: f.__name__)
def test_struct_size_is_known_to_codegen_only(site):
    """The one pinned difference: struct layouts are built by codegen,
    so a struct's own size is a constant in a global initializer and
    not at the sites the parser folds."""
    assert global_initializer("sizeof(struct S)") == 16
    with pytest.raises(CParseError,
                       match=r"sizeof\(struct S\) is not known while parsing"):
        site("sizeof(struct S)")


#: Global initializers that convert, with gcc 12.2's values
#: (``-std=c11 -pedantic``, no warning): a cast wraps or truncates
#: toward zero, and an integer global takes an arithmetic initializer
#: as by assignment.
GCC_GLOBALS = [
    ("long g = (long)1;", 1),
    ("long g = (unsigned char)300;", 44),
    ("long g = (int)-3.7;", -3),
    ("long g = 3.9f * 2;", 7),
    ("long g = (float)16777217;", 16777216),
    ("unsigned char g = 44.9;", 44),
]


@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("decl, value", GCC_GLOBALS)
def test_global_initializer_converts_like_gcc(decl, value, engine):
    kernel = Kernel(engine=engine)
    loaded = kernel.insmod(compile_module(
        f"{decl} __export long f(void) {{ return g; }}",
        CompileOptions(module_name="init", protect=False)))
    assert I64.to_signed(kernel.run_function(loaded, "f", [])) == value

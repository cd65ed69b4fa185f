"""Constant expressions compute at their C types.

``minicc.constexpr.fold`` gives each subexpression its C type, meets
operands in the usual arithmetic conversions, and wraps integer results
at that type, so a global initializer holds what gcc 12.2
(``-O0 -fwrapv``, x86-64) stores for the same line.  The two floating
rows are the ones typeless folding got wrong (``-1.0`` and
``4294967296.0``); each module is loaded and read back under both
engines.  An unsuffixed hexadecimal or octal literal takes the first of
``int``, ``unsigned int``, ``long`` and ``unsigned long`` that holds it
(C11 6.4.4.1), in constant expressions and at run time alike; a leading
zero makes a literal octal.
"""

import struct

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel

#: (global declaration, the value gcc stores for it).
GCC_ROWS = [
    ("double g = -1UL;", 18446744073709551615.0),
    ("double g = 0xFFFFFFFFu + 1;", 0.0),
    ("float g = -1UL;", 18446744073709551616.0),
    ("long g = 1 ? -1 : 0u;", 4294967295),
    ("unsigned g = -1;", 4294967295),
    ("long g = ~0u;", 4294967295),
    ("long g = -1u >> 1;", 2147483647),
    ("long g = 7u / -2;", 0),
    ("long g = (-7) % 3u;", 0),
    ("long g = 1u << 31;", 2147483648),
    ("long g = -1L >> 63;", -1),
    ("long g = 0x80000000;", 2147483648),
    ("long g = -0x80000000;", 2147483648),
    ("long g = 0x8000000000000000 >> 63;", 1),
    ("long g = 0777;", 511),
    ("long g = 010u;", 8),
    ("long g = -037777777777;", 1),
    ("long g = 1 == 1;", 1),
    ("long g = 2 < 3;", 1),
    ("long g = 1 && 2;", 1),
    ("long g = 0 || 0;", 0),
    ("long g = -1 < 0u;", 0),
    ("long g = 0777 == 511;", 1),
]

_FORMATS = {"double": "<d", "float": "<f", "long": "<q", "unsigned": "<I"}


@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("decl, expected", GCC_ROWS)
def test_initializer_matches_gcc(decl, expected, engine):
    fmt = _FORMATS[decl.split()[0]]
    size = struct.calcsize(fmt)
    kernel = Kernel(engine=engine)
    # ``get`` reads the global back through the engine: a floating one
    # as its bit pattern, so no conversion can hide the value.
    reader = {"<d": "long *p = (long *)&g; return *p;",
              "<f": "unsigned *p = (unsigned *)&g; return *p;"}.get(
                  fmt, "return (long)g;")
    loaded = kernel.insmod(compile_module(
        f"{decl}\n__export long get(void) {{ {reader} }}",
        CompileOptions(module_name="cexpr", protect=False),
    ))
    raw = kernel.address_space.read_bytes(loaded.address_of("g"), size)
    (stored,) = struct.unpack(fmt, raw)
    assert stored == expected
    got = kernel.run_function(loaded, "get", []) & (2**64 - 1)
    if fmt in ("<d", "<f"):
        assert got == int.from_bytes(raw, "little")
    else:
        assert got == expected & (2**64 - 1)


#: (body of ``long f(int a)``, argument, what gcc returns).
GCC_RUNTIME_ROWS = [
    ("return -0x80000000 + a;", 0, 2147483648),
    ("return 0xFFFFFFFF > a;", -1, 0),
    ("return 037777777777 > a;", -1, 0),
    ("return 0777 == 511 + a;", 0, 1),
]


@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("body, arg, expected", GCC_RUNTIME_ROWS)
def test_hex_literal_types_at_run_time(body, arg, expected, engine):
    kernel = Kernel(engine=engine)
    loaded = kernel.insmod(compile_module(
        f"__export long f(int a) {{ {body} }}",
        CompileOptions(module_name="hexrt", protect=False),
    ))
    got = kernel.run_function(loaded, "f", [arg & 0xFFFFFFFF])
    assert got == expected & (2**64 - 1)

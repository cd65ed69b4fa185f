"""The compiled engine's inline loads and stores match the interpreter.

A compiled load or store is generated text: a TLB probe and, for an
aligned integer, one index into the page's view of its width (a float
decodes at its offset in the byte page), with the site's miss closure
for everything else.  These cases pin the parts of that text the TLB
coherence scenarios leave alone: every unaligned offset of each width
inside a page, every offset at which an access first straddles a
TLB-resident page, integer stores of values wider than the store
(arguments reach the VM unnormalized; the interpreter masks them at the
store), and accesses to globals, whose literal addresses have their
page and index folded (an unaligned one always misses).  Each case
runs under both engines and compares results, RAM, and the timing
counters.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel, MemoryFault, layout
from repro.vm import get_machine

PAGE = layout.PAGE_SIZE

SOURCE = """
unsigned char gb;
unsigned short gh;
unsigned int gw;
unsigned long gq;
double gd;
float gf;
unsigned char gbuf[64];
__export unsigned long ld1(unsigned long p) { return *(unsigned char *)p; }
__export unsigned long ld2(unsigned long p) { return *(unsigned short *)p; }
__export unsigned long ld4(unsigned long p) { return *(unsigned int *)p; }
__export unsigned long ld8(unsigned long p) { return *(unsigned long *)p; }
__export void st1(unsigned long p, unsigned char v) { *(unsigned char *)p = v; }
__export void st2(unsigned long p, unsigned short v) { *(unsigned short *)p = v; }
__export void st4(unsigned long p, unsigned int v) { *(unsigned int *)p = v; }
__export void st8(unsigned long p, unsigned long v) { *(unsigned long *)p = v; }
__export void stneg(unsigned long p) {
    *(int *)p = -5; *(long *)(p + 8) = -1; *(short *)(p + 16) = -300;
}
__export unsigned long globals(unsigned long v) {
    gb = v; gh = v; gw = v; gq = v; gd = v; gf = v;
    return gb + gh + gw + gq + (unsigned long)gd + (unsigned long)gf;
}
__export unsigned long unaligned_globals(unsigned long v) {
    *(unsigned short *)(gbuf + 1) = v;
    *(unsigned int *)(gbuf + 6) = v;
    *(unsigned long *)(gbuf + 13) = v;
    *(unsigned long *)(gbuf + 32) = v;
    return *(unsigned short *)(gbuf + 1) + *(unsigned int *)(gbuf + 6)
        + *(unsigned long *)(gbuf + 13) + *(unsigned long *)(gbuf + 28);
}
"""

ENGINES = ("interp", "compiled")
WIDTHS = {1: ("ld1", "st1"), 2: ("ld2", "st2"), 4: ("ld4", "st4"),
          8: ("ld8", "st8")}


def run_both(scenario) -> list:
    """``scenario(call, edge)`` under each engine, where ``edge`` is the
    direct-map address of the boundary between two RAM pages that are
    already written (so both are in the TLB after a first access)."""
    seen = {}
    for engine in ENGINES:
        kernel = Kernel(machine=get_machine("r415"), engine=engine)
        loaded = kernel.insmod(compile_module(
            SOURCE, CompileOptions(module_name="inline", protect=False)))
        first = kernel.page_allocator.alloc_pages(2)
        kernel.ram.write(first, bytes(range(256)) * (2 * PAGE // 256))
        edge = layout.direct_map_address(first + PAGE)
        trail = []

        def call(fn, *args):
            try:
                out = kernel.run_function(loaded, fn, list(args))
            except MemoryFault as e:
                out = ("fault", str(e))
            trail.append((fn, args, out))
            return out

        call("ld8", edge - PAGE)  # enter both pages in the TLB
        call("ld8", edge)
        scenario(call, edge)
        seen[engine] = {
            "trail": trail,
            "ram": {pfn: bytes(page)
                    for pfn, page in kernel.ram._pages.items()},
            "timing": kernel.vm.timing.snapshot(),
            "instructions_executed": kernel.vm.instructions_executed,
        }
    assert seen["compiled"] == seen["interp"]
    return seen["compiled"]["trail"]


@pytest.mark.parametrize("width", [2, 4, 8])
def test_every_straddling_offset(width):
    ld, st = WIDTHS[width]

    def scenario(call, edge):
        # From the last in-page offset to the last straddling one.
        for back in range(width, 0, -1):
            call(st, edge - back, (0x0102030405060708 * back)
                 & ((1 << (8 * width)) - 1))
            call(ld, edge - back)
            call(ld, edge - back + 1)

    trail = run_both(scenario)
    loads = [out for fn, _, out in trail[2:] if fn == ld]
    assert len(loads) == 2 * width and None not in loads


@pytest.mark.parametrize("width", [2, 4, 8])
def test_every_unaligned_offset(width):
    ld, st = WIDTHS[width]

    def scenario(call, edge):
        # Every offset inside the page, aligned or not, in two places.
        for base in (edge + 256, edge + PAGE - 2 * width):
            for off in range(width):
                call(ld, base + off)
                call(st, base + off, (0xF1E2D3C4B5A69788 >> off)
                     & ((1 << (8 * width)) - 1))
                call(ld, base + off)
                call(ld, base + off - 1)

    trail = run_both(scenario)
    after = [out for fn, _, out in trail[2:] if fn == ld][1::3]
    mask = (1 << (8 * width)) - 1
    assert after == [(0xF1E2D3C4B5A69788 >> off) & mask
                     for _ in range(2) for off in range(width)]


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_stores_mask_unnormalized_values(width):
    ld, st = WIDTHS[width]
    values = [-1, -2, 1 << (8 * width), (1 << 70) + 0x55, 0x1234567890ABCDEF]

    def scenario(call, edge):
        for v in values:
            call(st, edge + 64, v)
            call(ld, edge + 64)
            call(st, edge - 1 if width > 1 else edge - PAGE, v)  # miss path

    trail = run_both(scenario)
    mask = (1 << (8 * width)) - 1
    loads = [out for fn, _, out in trail[2:] if fn == ld]
    assert loads == [v & mask for v in values]


def test_globals_at_literal_addresses():
    def scenario(call, edge):
        for v in (0, 1, 300, 70000, (1 << 40) + 3):
            call("globals", v)

    trail = run_both(scenario)
    assert trail[2][2] == 0
    assert trail[3][2] == 6


def test_unaligned_globals_at_literal_addresses():
    def scenario(call, edge):
        for v in (0, 0x0102030405060708, (1 << 64) - 1):
            call("unaligned_globals", v)

    trail = run_both(scenario)
    v = 0x0102030405060708
    # gbuf + 28 holds the low half of the store at gbuf + 32 above it.
    assert trail[3][2] == ((v & 0xFFFF) + (v & 0xFFFFFFFF) + v
                           + ((v & 0xFFFFFFFF) << 32)) & ((1 << 64) - 1)


def test_negative_constants_are_stored_as_their_bit_patterns():
    def scenario(call, edge):
        call("stneg", edge + 128)
        for fn, off in (("ld4", 0), ("ld8", 8), ("ld2", 16)):
            call(fn, edge + 128 + off)

    trail = run_both(scenario)
    assert [out for _, _, out in trail[3:]] == [
        (1 << 32) - 5, (1 << 64) - 1, (1 << 16) - 300]

"""The compiled engine's software TLB is coherent with the address space.

Compiled loads and stores serve RAM accesses from the typed page views
in ``KernelAddressSpace.rtlb[n]``/``wtlb[n]`` (an aligned integer
access indexes the view of its width; a float one decodes from the byte
page); the interpreter never uses them.  Every scenario here runs under
both engines and must observe the same results, faults, counters
(``loads``, ``stores``, ``mmio_*``, cycles) and residency: the
interpreter is the TLB-free oracle.
"""

from __future__ import annotations

import struct

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel, MemoryFault, layout
from repro.vm import get_machine

PAGE = layout.PAGE_SIZE
#: An unused stretch of the vmalloc area (ioremap allocates from its
#: bottom).
VIRT = layout.VMALLOC_BASE + (1 << 30)

SOURCE = """
__export unsigned long ld8(unsigned long p) { return *(unsigned long *)p; }
__export unsigned long ld4(unsigned long p) { return *(unsigned int *)p; }
__export unsigned long ld2(unsigned long p) { return *(unsigned short *)p; }
__export unsigned long ld1(unsigned long p) { return *(unsigned char *)p; }
__export void st2(unsigned long p, unsigned long v) { *(unsigned short *)p = v; }
__export void st8(unsigned long p, unsigned long v) { *(unsigned long *)p = v; }
__export void st4(unsigned long p, unsigned long v) { *(unsigned int *)p = v; }
__export double ldd(unsigned long p) { return *(double *)p; }
__export void std8(unsigned long p, double v) { *(double *)p = v; }
__export double ldf(unsigned long p) { return *(float *)p; }
__export void stf(unsigned long p, double v) { *(float *)p = v; }
"""

ENGINES = ["interp", "compiled"]
WIDTHS = {2: ("ld2", "st2"), 4: ("ld4", "st4"), 8: ("ld8", "st8")}


def in_tlb(tables: dict, virt: int) -> list:
    """The widths whose view table (``rtlb`` or ``wtlb``) holds
    ``virt``'s page."""
    vpn = virt >> layout.PAGE_SHIFT
    return [width for width, table in tables.items() if vpn in table]


class Recorder:
    """An MMIO device that logs every access and reads back a pattern."""

    def __init__(self):
        self.log: list[tuple] = []

    def mmio_read(self, offset: int, size: int) -> int:
        self.log.append(("r", offset, size))
        return (0x1122334455667788 + offset) & ((1 << (8 * size)) - 1)

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        self.log.append(("w", offset, size, value))


class Rig:
    """One kernel with the test module loaded; ``call`` records each
    access's result or fault."""

    def __init__(self, engine: str):
        self.kernel = Kernel(machine=get_machine("r415"), engine=engine)
        self.mem = self.kernel.address_space
        self.ram = self.kernel.ram
        self.module = self.kernel.insmod(compile_module(
            SOURCE, CompileOptions(module_name="tlbtest", protect=False)))
        self.trail: list = []

    def call(self, fn: str, *args):
        try:
            out = self.kernel.run_function(self.module, fn, list(args))
        except MemoryFault as e:
            out = ("fault", str(e))
        self.trail.append((fn, out))
        return out

    def page(self) -> int:
        """A fresh physical page nobody else uses."""
        return self.kernel.page_allocator.alloc_pages(1)

    def observe(self) -> dict:
        return {
            "trail": self.trail,
            "timing": self.kernel.vm.timing.snapshot(),
            "resident": self.ram.resident_bytes,
        }


def both(scenario):
    """Run ``scenario(rig)`` under each engine; the observations match."""
    seen = {}
    for engine in ENGINES:
        rig = Rig(engine)
        scenario(rig)
        seen[engine] = rig.observe()
    assert seen["compiled"] == seen["interp"]
    return seen["compiled"]["trail"]


def test_unmap_then_access_faults():
    def scenario(r):
        r.mem.map_linear(VIRT, PAGE, r.page(), "scratch")
        r.call("st8", VIRT + 8, 0xDEAD)
        r.call("ld8", VIRT + 8)
        r.call("ld2", VIRT + 8)
        if r.kernel.engine == "compiled":
            assert in_tlb(r.mem.rtlb, VIRT) == [1, 2, 4, 8]
        r.mem.unmap(VIRT)
        assert in_tlb(r.mem.rtlb, VIRT) == in_tlb(r.mem.wtlb, VIRT) == []
        r.call("ld8", VIRT + 8)
        r.call("ld4", VIRT + 8)
        r.call("st8", VIRT + 8, 1)
        r.call("st2", VIRT + 8, 1)
        r.call("ldd", VIRT + 8)

    trail = both(scenario)
    assert trail[1:3] == [("ld8", 0xDEAD), ("ld2", 0xDEAD)]
    for fn, out in trail[3:]:
        assert out[0] == "fault" and "no mapping" in out[1], fn


def test_remap_to_another_page_reads_the_new_bytes():
    def scenario(r):
        p1, p2 = r.page(), r.page()
        r.ram.write(p1, (111).to_bytes(8, "little"))
        r.ram.write(p2, (222).to_bytes(8, "little"))
        r.mem.map_linear(VIRT, PAGE, p1, "scratch")
        r.call("ld8", VIRT)
        r.call("st4", VIRT + 16, 7)
        r.mem.unmap(VIRT)
        r.mem.map_linear(VIRT, PAGE, p2, "scratch")
        r.call("ld8", VIRT)
        r.call("ld4", VIRT + 16)
        r.call("st8", VIRT, 333)
        r.call("ld2", VIRT)
        r.trail.append(("p1", r.ram.read(p1, 8), "p2", r.ram.read(p2, 8)))

    trail = both(scenario)
    assert [out for _, out in trail[:6]] == [111, None, 222, 0, None, 333]
    assert trail[6] == ("p1", (111).to_bytes(8, "little"),
                        "p2", (333).to_bytes(8, "little"))


def test_store_to_read_only_mapping_faults_after_a_load():
    def scenario(r):
        phys = r.page()
        r.ram.write(phys, (0xC0FFEE).to_bytes(8, "little"))
        r.mem.map_linear(VIRT, PAGE, phys, "rodata", writable=False)
        r.call("ld8", VIRT)
        r.call("ld8", VIRT)
        if r.kernel.engine == "compiled":
            assert in_tlb(r.mem.rtlb, VIRT) == [1, 2, 4, 8]
            assert in_tlb(r.mem.wtlb, VIRT) == []
        r.call("st8", VIRT, 1)
        r.call("std8", VIRT, 1.5)
        r.call("st2", VIRT, 1)
        r.call("ld8", VIRT)

    trail = both(scenario)
    assert [out for _, out in trail] == [
        0xC0FFEE, 0xC0FFEE,
        ("fault", f"unable to handle write to {VIRT:#018x} (size 8): "
                  "rodata is read-only"),
        ("fault", f"unable to handle write to {VIRT:#018x} (size 8): "
                  "rodata is read-only"),
        ("fault", f"unable to handle write to {VIRT:#018x} (size 2): "
                  "rodata is read-only"),
        0xC0FFEE,
    ]


def test_every_mmio_access_reaches_the_device():
    logs = {}

    def scenario(r):
        dev = Recorder()
        r.mem.map_mmio(VIRT, PAGE, dev, "mmio:rec")
        for _ in range(3):
            r.call("ld4", VIRT + 8)
            r.call("st4", VIRT + 8, 0xABCD)
        r.call("ld8", VIRT + PAGE - 8)
        r.call("ldd", VIRT + 16)
        r.call("std8", VIRT + 16, 2.0)
        r.call("ld8", VIRT + PAGE - 4)  # runs past the window
        logs[r.kernel.engine] = dev.log

    both(scenario)
    assert logs["compiled"] == logs["interp"]
    assert len(logs["compiled"]) == 9
    assert logs["compiled"][:2] == [("r", 8, 4), ("w", 8, 4, 0xABCD)]


def test_page_straddling_loads_and_stores():
    def scenario(r):
        first = r.kernel.page_allocator.alloc_pages(2)
        edge = layout.direct_map_address(first + PAGE)
        r.call("st8", edge - 3, 0x0102030405060708)
        r.call("ld8", edge - 3)
        r.call("ld4", edge - 2)
        r.call("std8", edge - 4, -0.125)
        r.call("ldd", edge - 4)
        r.call("stf", edge - 2, 3.5)
        r.call("ldf", edge - 2)
        r.call("ld8", edge - 8)
        r.call("ld8", edge)
        # A one-page mapping: an access running off its end faults.
        r.mem.map_linear(VIRT, PAGE, r.page(), "scratch")
        r.call("st8", VIRT + PAGE - 8, 5)
        r.call("st8", VIRT + PAGE - 4, 5)
        r.call("ld8", VIRT + PAGE - 4)

    trail = both(scenario)
    assert trail[1] == ("ld8", 0x0102030405060708)
    assert trail[4] == ("ldd", -0.125)
    assert trail[6] == ("ldf", 3.5)
    assert trail[-2][1][0] == trail[-1][1][0] == "fault"


def test_tlb_hit_float_stores_round_like_the_interpreter():
    def scenario(r):
        virt = layout.direct_map_address(r.page())
        r.call("st8", virt, 0)  # fills the TLB
        for v in (1e300, -1e300, 1.1, 2.0 ** -149):
            r.call("stf", virt + 8, v)
            r.call("ldf", virt + 8)
            r.call("std8", virt + 16, v)
            r.call("ldd", virt + 16)

    trail = both(scenario)
    assert trail[2] == ("ldf", float("inf"))
    assert trail[6] == ("ldf", float("-inf"))
    assert trail[10] == ("ldf", struct.unpack("<f", struct.pack("<f", 1.1))[0])
    assert trail[12] == ("ldd", 1.1)


def test_never_written_page_reads_zero_without_materializing():
    def scenario(r):
        phys = r.page()
        virt = layout.direct_map_address(phys)
        before = r.ram.resident_bytes
        for fn in ("ld8", "ld8", "ld1", "ld2", "ld4", "ldd", "ldf"):
            r.call(fn, virt + 40)
        # The DMA engines' readers leave it absent too.
        r.trail.append(("dma", r.ram.read_int(phys + 40, 4),
                        r.ram.unpack(struct.Struct("<QH"), phys + 8)))
        r.trail.append(("resident delta", r.ram.resident_bytes - before))
        assert in_tlb(r.mem.rtlb, virt) == in_tlb(r.mem.wtlb, virt) == []

    trail = both(scenario)
    assert [out for _, out in trail[:7]] == [0, 0, 0, 0, 0, 0.0, 0.0]
    assert trail[7:] == [("dma", 0, (0, 0)), ("resident delta", 0)]


def test_dma_write_is_visible_to_the_next_load():
    def scenario(r):
        phys = r.page()
        virt = layout.direct_map_address(phys)
        r.call("st8", virt, 1)
        r.call("ld8", virt)
        r.ram.write(phys, (2).to_bytes(8, "little"))  # the DMA path
        r.call("ld8", virt)
        r.ram.write(phys + 8, struct.pack("<d", 4.25))
        r.call("ldd", virt + 8)
        r.mem.write_int(virt, 8, 3)  # a native's write_int
        r.call("ld8", virt)
        # The device models' field writes index the same views.
        r.call("ld4", virt + 16)
        r.call("ld2", virt + 22)
        r.ram.write_int(phys + 16, 4, 0xA5A5A5A5)
        r.ram.write_int(phys + 22, 2, 0x1234)
        r.ram.write_int(phys + 25, 4, 0x0BADF00D)  # unaligned
        r.call("ld4", virt + 16)
        r.call("ld2", virt + 22)
        r.call("ld8", virt + 24)
        r.ram.write_int(phys + PAGE - 2, 4, 0x5566)  # onto the next page
        r.call("ld2", virt + PAGE - 2)

    trail = both(scenario)
    assert [out for _, out in trail] == [
        None, 1, 2, 4.25, 3, 0, 0, 0xA5A5A5A5, 0x1234,
        0x0BADF00D << 8, 0x5566]


def test_unaligned_and_partial_page_mappings_stay_correct():
    def scenario(r):
        p = r.kernel.page_allocator.alloc_pages(2)
        r.ram.write(p + 24, (0x77).to_bytes(8, "little"))
        # Physical base off a page boundary: never entered in the TLB.
        r.mem.map_linear(VIRT, PAGE, p + 16, "skewed")
        r.call("ld8", VIRT + 8)
        r.call("st8", VIRT + 8, 0x99)
        r.call("ld8", VIRT + 8)
        r.trail.append(("ram", r.ram.read(p, 40)))
        assert in_tlb(r.mem.rtlb, VIRT) == []
        # A mapping smaller than a page: never entered either.
        r.mem.map_linear(VIRT + 4 * PAGE, 64, p + PAGE, "tiny")
        r.call("st8", VIRT + 4 * PAGE + 56, 6)
        r.call("ld8", VIRT + 4 * PAGE + 56)
        r.call("ld8", VIRT + 4 * PAGE + 60)
        assert in_tlb(r.mem.wtlb, VIRT + 4 * PAGE) == []

    trail = both(scenario)
    assert [out for _, out in trail[:3]] == [0x77, None, 0x99]
    assert trail[3] == ("ram", bytes(24) + (0x99).to_bytes(8, "little")
                        + bytes(8))
    assert [out for _, out in trail[4:6]] == [None, 6]
    assert trail[6][1][0] == "fault"


@pytest.mark.parametrize("first", ["st8", "ld8"])
def test_hot_ram_page_makes_no_find_calls(first):
    r = Rig("compiled")
    mem = r.mem
    calls = []
    find = mem.find

    def counting_find(addr):
        calls.append(addr)
        return find(addr)

    mem.find = counting_find  # bound into each site when it is translated
    phys = r.page()
    virt = layout.direct_map_address(phys)
    r.ram.write(phys, bytes(8))  # materialized, so a load may fill it too
    r.call(first, virt, *((5,) if first == "st8" else ()))
    assert calls  # the first access misses and fills the TLB
    calls.clear()
    for i in range(4):
        r.call("st8", virt + 8 * i, i)
        r.call("ld8", virt + 8 * i)
        r.call("ld4", virt + 100)
        r.call("std8", virt + 64, i / 2)
        r.call("ldd", virt + 64)
        r.call("stf", virt + 80, 1.5)
        r.call("ldf", virt + 80)
    assert calls == []
    assert r.trail[-2:] == [("stf", None), ("ldf", 1.5)]


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_unaligned_in_page_accesses_take_the_miss_path(width):
    """An integer access indexes the view of its width, so one at an
    unaligned offset inside a TLB-resident page calls its miss closure
    (one ``find``) and still reads and writes the right bytes; an
    aligned one makes no call."""
    ld, st = WIDTHS[width]
    finds = {}

    def scenario(r):
        calls = finds.setdefault(r.kernel.engine, [])
        find = r.mem.find

        def counting_find(addr):
            calls.append(addr)
            return find(addr)

        r.mem.find = counting_find
        phys = r.page()
        virt = layout.direct_map_address(phys)
        r.ram.write(phys, bytes((5 * i + 1) & 0xFF for i in range(PAGE)))
        r.call(ld, virt)  # fills the TLB
        del calls[:]
        for base in (64, PAGE - 2 * width):
            for off in range(width):
                r.call(ld, virt + base + off)
                r.call(st, virt + base + off, 0x8877665544332211 >> off)
                r.call(ld, virt + base + off)
                r.trail.append(("ram", r.ram.read(phys + base, 2 * width)))

    trail = both(scenario)
    misses = [a & (PAGE - 1) for a in finds["compiled"]]
    offsets = [base + off for base in (64, PAGE - 2 * width)
               for off in range(1, width)]
    assert misses == [o for o in offsets for _ in range(3)]
    mask = (1 << 8 * width) - 1
    stored = [out for fn, out in trail if fn == ld][2::2]  # after each store
    assert stored == [(0x8877665544332211 >> off) & mask
                      for _ in range(2) for off in range(width)]


class Wild:
    """An MMIO device whose reads return what a buggy model might: a
    negative number, one too wide for the access, a bool."""

    VALUES = {0: -1, 8: 1 << 40, 16: True, 24: 0xFFFF_FFFF}

    def __init__(self):
        self.writes: list[tuple] = []

    def mmio_read(self, offset: int, size: int):
        return self.VALUES.get(offset, 7)

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        self.writes.append((offset, size, value))


def test_mmio_values_convert_and_fail_like_the_interpreter():
    """A device's read value reaches the module as the interpreter's
    ``to_bytes`` round trip makes it, or raises its error after the MMIO
    charge; a store hands the device the masked integer."""
    writes = {}

    def scenario(r):
        dev = Wild()
        r.mem.map_mmio(VIRT, PAGE, dev, "mmio:wild")
        for off in (0, 8, 16, 24, 32):
            try:
                r.call("ld4", VIRT + off)
            except OverflowError as e:
                r.trail.append(("overflow", str(e)))
        r.call("st4", VIRT + 40, -2)
        r.call("st2", VIRT + 48, 0x12345)
        r.call("std8", VIRT + 56, 1.5)
        writes[r.kernel.engine] = dev.writes

    trail = both(scenario)
    assert [t[0] for t in trail[:5]] == [
        "overflow", "overflow", "ld4", "ld4", "ld4"]
    assert [t[1] for t in trail[2:5]] == [1, 0xFFFF_FFFF, 7]
    assert writes["compiled"] == writes["interp"] == [
        (40, 4, 0xFFFF_FFFE), (48, 2, 0x2345),
        (56, 8, int.from_bytes(struct.pack("<d", 1.5), "little"))]


def test_compiled_engine_refuses_a_big_endian_host(monkeypatch):
    import sys

    monkeypatch.setattr(sys, "byteorder", "big")
    with pytest.raises(RuntimeError, match="--engine interp"):
        Kernel(machine=get_machine("r415"), engine="compiled").vm
    assert Kernel(machine=get_machine("r415"), engine="interp").vm

"""The compiled engine's software TLB is coherent with the address space.

Compiled loads and stores serve intra-page RAM accesses from
``KernelAddressSpace.rtlb``/``wtlb``; the interpreter never uses them.
Every scenario here runs under both engines and must observe the same
results, faults, counters (``loads``, ``stores``, ``mmio_*``, cycles)
and residency: the interpreter is the TLB-free oracle.
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
__export unsigned long ld1(unsigned long p) { return *(unsigned char *)p; }
__export void st8(unsigned long p, unsigned long v) { *(unsigned long *)p = v; }
__export void st4(unsigned long p, unsigned long v) { *(unsigned int *)p = v; }
__export double ldd(unsigned long p) { return *(double *)p; }
__export void std8(unsigned long p, double v) { *(double *)p = v; }
__export double ldf(unsigned long p) { return *(float *)p; }
__export void stf(unsigned long p, double v) { *(float *)p = v; }
"""

ENGINES = ["interp", "compiled"]


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
        r.mem.unmap(VIRT)
        r.call("ld8", VIRT + 8)
        r.call("st8", VIRT + 8, 1)
        r.call("ldd", VIRT + 8)

    trail = both(scenario)
    assert trail[1] == ("ld8", 0xDEAD)
    for fn, out in trail[2:]:
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
        r.trail.append(("p1", r.ram.read(p1, 8), "p2", r.ram.read(p2, 8)))

    trail = both(scenario)
    assert [out for _, out in trail[:5]] == [111, None, 222, 0, None]
    assert trail[5] == ("p1", (111).to_bytes(8, "little"),
                        "p2", (333).to_bytes(8, "little"))


def test_store_to_read_only_mapping_faults_after_a_load():
    def scenario(r):
        phys = r.page()
        r.ram.write(phys, (0xC0FFEE).to_bytes(8, "little"))
        r.mem.map_linear(VIRT, PAGE, phys, "rodata", writable=False)
        r.call("ld8", VIRT)
        r.call("ld8", VIRT)
        r.call("st8", VIRT, 1)
        r.call("std8", VIRT, 1.5)
        r.call("ld8", VIRT)

    trail = both(scenario)
    assert [out for _, out in trail] == [
        0xC0FFEE, 0xC0FFEE,
        ("fault", f"unable to handle write to {VIRT:#018x} (size 8): "
                  "rodata is read-only"),
        ("fault", f"unable to handle write to {VIRT:#018x} (size 8): "
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
        for fn in ("ld8", "ld8", "ld1", "ldd", "ldf"):
            r.call(fn, virt + 40)
        r.trail.append(("resident delta", r.ram.resident_bytes - before))
        if r.kernel.engine == "compiled":
            assert virt >> layout.PAGE_SHIFT not in r.mem.rtlb

    trail = both(scenario)
    assert [out for _, out in trail] == [0, 0, 0, 0.0, 0.0, 0]


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

    trail = both(scenario)
    assert [out for _, out in trail] == [None, 1, 2, 4.25, 3]


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
        if r.kernel.engine == "compiled":
            assert VIRT >> layout.PAGE_SHIFT not in r.mem.rtlb
        # A mapping smaller than a page: never entered either.
        r.mem.map_linear(VIRT + 4 * PAGE, 64, p + PAGE, "tiny")
        r.call("st8", VIRT + 4 * PAGE + 56, 6)
        r.call("ld8", VIRT + 4 * PAGE + 56)
        r.call("ld8", VIRT + 4 * PAGE + 60)
        if r.kernel.engine == "compiled":
            assert (VIRT >> layout.PAGE_SHIFT) + 4 not in r.mem.wtlb

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

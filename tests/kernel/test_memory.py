"""Physical memory and address-space tests."""

import struct

import pytest

from repro.kernel import KernelAddressSpace, MemoryFault, PhysicalMemory, layout


@pytest.fixture()
def ram():
    return PhysicalMemory(16 << 20)


@pytest.fixture()
def space(ram):
    return KernelAddressSpace(ram)


class TestPhysicalMemory:
    def test_zero_initialized(self, ram):
        assert ram.read(0x1234, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self, ram):
        ram.write(0x1000, b"hello world")
        assert ram.read(0x1000, 11) == b"hello world"

    def test_cross_page_write(self, ram):
        addr = layout.PAGE_SIZE - 3
        ram.write(addr, b"ABCDEFGH")
        assert ram.read(addr, 8) == b"ABCDEFGH"

    def test_sparse_residency(self, ram):
        assert ram.resident_bytes == 0
        ram.write(5 * layout.PAGE_SIZE, b"x")
        assert ram.resident_bytes == layout.PAGE_SIZE

    def test_reads_do_not_materialize_pages(self, ram):
        ram.read(0, 4096)
        assert ram.resident_bytes == 0

    def test_out_of_range_rejected(self, ram):
        with pytest.raises(MemoryFault):
            ram.read(ram.size - 4, 8)
        with pytest.raises(MemoryFault):
            ram.write(ram.size, b"x")

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(1000)  # not page multiple
        with pytest.raises(ValueError):
            PhysicalMemory(0)


class LoopModel:
    """The page walk ``PhysicalMemory`` does for any span, one chunk per
    page: the oracle its single-page fast paths must match."""

    def __init__(self):
        self.pages: dict[int, bytearray] = {}

    def read(self, phys: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            pfn, off = divmod(phys, layout.PAGE_SIZE)
            chunk = min(size, layout.PAGE_SIZE - off)
            page = self.pages.get(pfn)
            out += page[off:off + chunk] if page else bytes(chunk)
            phys += chunk
            size -= chunk
        return bytes(out)

    def write(self, phys: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            pfn, off = divmod(phys + pos, layout.PAGE_SIZE)
            chunk = min(len(data) - pos, layout.PAGE_SIZE - off)
            page = self.pages.setdefault(pfn, bytearray(layout.PAGE_SIZE))
            page[off:off + chunk] = data[pos:pos + chunk]
            pos += chunk


class TestSpansAgainstThePageLoop:
    """Reads and writes inside one page, across a page boundary and over
    whole pages give the loop's bytes and materialize the loop's pages:
    a read never materializes one, an empty write neither."""

    P = layout.PAGE_SIZE
    SPANS = [  # (offset from a page start, size)
        (0, 0), (5, 0), (0, 1), (P - 1, 1), (P - 8, 8), (P - 3, 8),
        (0, P), (1, P), (P - 1, 2), (17, 3 * P), (P // 2, 2 * P),
    ]

    @pytest.mark.parametrize("off, size", SPANS)
    def test_read_of_never_written_pages(self, ram, off, size):
        base = 8 * self.P + off
        assert ram.read(base, size) == LoopModel().read(base, size)
        assert ram.resident_bytes == 0

    @pytest.mark.parametrize("off, size", SPANS)
    def test_write_then_reads_match_the_loop(self, ram, off, size):
        model = LoopModel()
        # One page written beforehand, so spans mix written and
        # never-written pages.
        for mem in (ram, model):
            mem.write(9 * self.P, bytes(range(256)) * (self.P // 256))
        data = bytes((7 * i + 3) & 0xFF for i in range(size))
        base = 8 * self.P + off
        ram.write(base, data)
        model.write(base, data)
        assert sorted(ram._pages) == sorted(model.pages)
        for a, n in [(base, size), (base - 1, size + 2), (8 * self.P, self.P),
                     (9 * self.P - 4, 8), (10 * self.P + 1, 5)]:
            assert ram.read(a, n) == model.read(a, n)

    def test_fast_path_keeps_the_range_check(self, ram):
        with pytest.raises(MemoryFault):
            ram.read(-1, 1)
        with pytest.raises(MemoryFault):
            ram.write(ram.size - 1, b"xy")
        with pytest.raises(MemoryFault):
            ram.read(0, -1)
        assert ram.resident_bytes == 0


class TestViewAccessors:
    """``read_int``/``write_int``/``unpack`` index a written page's views
    in place (aligned or not) and fall back to ``read``/``write`` for a
    page-crossing access or a never-written page."""

    P = layout.PAGE_SIZE
    BYTES = bytes((11 * i + 5) & 0xFF for i in range(2 * layout.PAGE_SIZE))

    @pytest.fixture()
    def written(self, ram):
        """Pages 2 and 3 written with ``BYTES``; page 5 never written."""
        ram.write(2 * self.P, self.BYTES)
        return ram

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    @pytest.mark.parametrize("off", [0, 1, 3, 8, 100, layout.PAGE_SIZE - 8])
    def test_in_page_reads_match_the_bytes(self, written, size, off):
        phys = 2 * self.P + off
        want = int.from_bytes(written.read(phys, size), "little")
        assert written.read_int(phys, size) == want

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_page_crossing_reads_and_writes(self, written, size):
        for back in range(1, size):
            phys = 3 * self.P - back
            want = int.from_bytes(written.read(phys, size), "little")
            assert written.read_int(phys, size) == want
            value = (0x0102030405060708 * back) & ((1 << 8 * size) - 1)
            written.write_int(phys, size, value)
            assert written.read(phys, size) == value.to_bytes(size, "little")

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    @pytest.mark.parametrize("off", [0, 1, 6, 16, layout.PAGE_SIZE - 8])
    def test_in_page_writes_land_in_the_page(self, written, size, off):
        phys = 2 * self.P + off
        value = (1 << 8 * size) - 3
        written.write_int(phys, size, value)
        page = self.BYTES[:self.P]
        assert written.read(2 * self.P, self.P) == (
            page[:off] + value.to_bytes(size, "little") + page[off + size:])
        views = written.views(2)
        if not off % size:
            assert views[size][off // size] == value

    def test_views_share_the_page(self, written):
        views = written.views(2)
        assert views[1] is written._pages[2]
        views[4][3] = 0xA1B2C3D4
        assert written.read(2 * self.P + 12, 4) == b"\xd4\xc3\xb2\xa1"
        written.write(2 * self.P + 16, (7).to_bytes(8, "little"))
        assert views[8][2] == 7
        assert written.views(5) is None

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_absent_page_reads_zero_and_stays_absent(self, written, size):
        before = written.resident_bytes
        for off in (0, 3, 64, self.P - size):
            assert written.read_int(5 * self.P + off, size) == 0
        # Straddling from a written page onto an absent one.
        assert written.read_int(4 * self.P - 1, size) == \
            int.from_bytes(written.read(4 * self.P - 1, size), "little")
        assert written.unpack(struct.Struct("<QI"), 5 * self.P + 4) == (0, 0)
        assert written.resident_bytes == before
        assert 5 not in written._pages and written.views(5) is None

    def test_write_to_an_absent_page_materializes_it(self, ram):
        ram.write_int(7 * self.P + 4, 4, 0xDEADBEEF)
        assert ram.resident_bytes == self.P
        assert ram.views(7)[4][1] == 0xDEADBEEF

    def test_unpack_in_page_crossing_and_absent(self, written):
        codec = struct.Struct("<QHBBI")
        for phys in (2 * self.P, 2 * self.P + 5, 3 * self.P - 7,
                     4 * self.P - 3, 5 * self.P):
            assert written.unpack(codec, phys) == \
                codec.unpack(written.read(phys, codec.size))

    def test_range_checks_survive(self, written):
        with pytest.raises(MemoryFault):
            written.read_int(written.size - 2, 4)
        with pytest.raises(MemoryFault):
            written.write_int(written.size - 1, 2, 1)
        with pytest.raises(MemoryFault):
            written.unpack(struct.Struct("<Q"), written.size - 4)
        with pytest.raises(MemoryFault):
            written.read_int(-8, 8)


class TestDirectMap:
    def test_direct_map_aliases_ram(self, space, ram):
        ram.write(0x2000, b"paint")
        virt = layout.direct_map_address(0x2000)
        assert space.read_bytes(virt, 5) == b"paint"

    def test_write_through_direct_map(self, space, ram):
        virt = layout.direct_map_address(0x3000)
        space.write_bytes(virt, b"kernel")
        assert ram.read(0x3000, 6) == b"kernel"

    def test_direct_map_bounds(self, space, ram):
        with pytest.raises(MemoryFault):
            space.read_bytes(layout.direct_map_address(ram.size), 1)


class TestMappings:
    def test_unmapped_address_faults(self, space):
        with pytest.raises(MemoryFault, match="no mapping"):
            space.read_bytes(0xDEAD0000, 4)
        with pytest.raises(MemoryFault):
            space.write_bytes(0x1000, b"x")  # user half unmapped in kernel

    def test_linear_mapping(self, space):
        base = 0xFFFF_C000_0000_0000
        space.map_linear(base, layout.PAGE_SIZE, phys_base=0x4000, name="win")
        space.write_bytes(base + 8, b"zz")
        assert space.ram.read(0x4008, 2) == b"zz"

    def test_overlapping_mapping_rejected(self, space):
        base = 0xFFFF_C000_0000_0000
        space.map_linear(base, 2 * layout.PAGE_SIZE, 0, "a")
        with pytest.raises(ValueError, match="overlaps"):
            space.map_linear(base + layout.PAGE_SIZE, layout.PAGE_SIZE, 0, "b")

    def test_unmap(self, space):
        base = 0xFFFF_C000_0000_0000
        space.map_linear(base, layout.PAGE_SIZE, 0, "tmp")
        space.unmap(base)
        with pytest.raises(MemoryFault):
            space.read_bytes(base, 1)
        with pytest.raises(KeyError):
            space.unmap(base)

    def test_read_only_mapping(self, space):
        base = 0xFFFF_C000_0000_0000
        space.map_linear(base, layout.PAGE_SIZE, 0, "ro", writable=False)
        space.read_bytes(base, 4)
        with pytest.raises(MemoryFault, match="read-only"):
            space.write_bytes(base, b"x")

    def test_access_straddling_mapping_end_faults(self, space):
        base = 0xFFFF_C000_0000_0000
        space.map_linear(base, layout.PAGE_SIZE, 0, "small")
        with pytest.raises(MemoryFault):
            space.read_bytes(base + layout.PAGE_SIZE - 2, 4)

    def test_find(self, space):
        m = space.find(layout.DIRECT_MAP_BASE + 100)
        assert m is not None and m.name == "direct-map"
        assert space.find(0x10) is None


class _Device:
    def __init__(self):
        self.reads = []
        self.writes = []
        self.regs = {0: 0xCAFEBABE}

    def mmio_read(self, offset, size):
        self.reads.append((offset, size))
        return self.regs.get(offset, 0)

    def mmio_write(self, offset, size, value):
        self.writes.append((offset, size, value))
        self.regs[offset] = value


class TestMMIO:
    def test_mmio_read_dispatches_to_device(self, space):
        dev = _Device()
        base = 0xFFFF_C900_0000_0000
        space.map_mmio(base, 0x1000, dev, "nic")
        assert space.read_int(base, 4) == 0xCAFEBABE
        assert dev.reads == [(0, 4)]

    def test_mmio_write_dispatches(self, space):
        dev = _Device()
        base = 0xFFFF_C900_0000_0000
        space.map_mmio(base, 0x1000, dev, "nic")
        space.write_int(base + 0x10, 4, 0x1234)
        assert dev.writes == [(0x10, 4, 0x1234)]
        assert space.read_int(base + 0x10, 4) == 0x1234


class TestTypedAccess:
    def test_little_endian_ints(self, space):
        virt = layout.direct_map_address(0x100)
        space.write_int(virt, 4, 0x11223344)
        assert space.read_bytes(virt, 4) == b"\x44\x33\x22\x11"
        assert space.read_int(virt, 4) == 0x11223344

    def test_int_write_masks_to_size(self, space):
        virt = layout.direct_map_address(0x100)
        space.write_int(virt, 2, 0x12345678)
        assert space.read_int(virt, 2) == 0x5678

    def test_floats(self, space):
        virt = layout.direct_map_address(0x200)
        space.write_f64(virt, 3.14159)
        assert space.read_f64(virt) == pytest.approx(3.14159)
        space.write_f32(virt, 2.5)
        assert space.read_f32(virt) == 2.5

    def test_cstring(self, space):
        virt = layout.direct_map_address(0x300)
        space.write_bytes(virt, b"hello\x00world")
        assert space.read_cstring(virt) == b"hello"

    def test_cstring_max_len(self, space):
        virt = layout.direct_map_address(0x400)
        space.write_bytes(virt, b"a" * 100)
        assert len(space.read_cstring(virt, max_len=10)) == 10


class TestLayoutHelpers:
    def test_half_space_predicates(self):
        assert layout.is_user_address(0x1000)
        assert not layout.is_user_address(layout.KERNEL_SPACE_START)
        assert layout.is_kernel_address(layout.DIRECT_MAP_BASE)

    def test_page_align(self):
        assert layout.page_align_up(1) == layout.PAGE_SIZE
        assert layout.page_align_up(layout.PAGE_SIZE) == layout.PAGE_SIZE

    def test_direct_map_inverse(self):
        assert layout.direct_map_to_phys(layout.direct_map_address(12345)) == 12345

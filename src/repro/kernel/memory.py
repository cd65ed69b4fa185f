"""Physical memory and the kernel virtual address space.

Physical RAM is a sparse page store (only touched pages materialize, so a
16 GB machine model costs nothing until written).  The kernel virtual
space routes:

- the **direct map** (all of RAM at ``DIRECT_MAP_BASE``),
- **MMIO windows** mapped by ``ioremap`` (device register files — reads
  and writes go to device callbacks, exactly the accesses the e1000e
  driver's register I/O performs),
- extra linear mappings (module area, kernel stacks) backed by RAM.

Every materialized RAM page has one set of **typed views**: the page
``bytearray`` itself for bytes and ``memoryview`` casts of it to
unsigned 2-, 4- and 8-byte items (formats ``H``, ``I``, ``Q``), made
with the page and, like it, never replaced or dropped.  Item ``i`` of
the width-``n`` view is the integer at page offset ``n * i``.  The
device models' DMA fields go through :meth:`PhysicalMemory.read_int`,
:meth:`~PhysicalMemory.write_int` and :meth:`~PhysicalMemory.unpack`,
which index those views (or ``unpack_from`` the page) and fall back to
:meth:`~PhysicalMemory.read`/:meth:`~PhysicalMemory.write` only for a
page-crossing access or a never-written page.

The address space also keeps a **software TLB** for the compiled
engine's load/store fast paths: ``rtlb[n]`` and ``wtlb[n]`` map a
virtual page number straight to the width-``n`` view of the RAM page
that a whole-page RAM mapping routes it to (``wtlb`` only for writable
mappings), so an aligned access is one index.  Entries are entered in
every view table at once by :meth:`KernelAddressSpace.tlb_fill` on a
miss and dropped from all of them on every map/unmap.  An entry stays
valid between those because the views never change: every RAM write,
the DMA path included, mutates the page the views share.  The
interpreter never consults the TLB.

Integers are stored little-endian, matching x86.  The views index in
the host's byte order, so only a little-endian host makes them; on any
other, every page is bytes alone, the accessors take their byte paths
and the compiled engine refuses to run (:mod:`repro.vm.compiled`).
"""

from __future__ import annotations

import bisect
import struct
import sys
from typing import Optional, Protocol

from ..ir.arith import pack_f32
from . import layout
from .panic import MemoryFault


_VIEW_FORMATS = {2: "H", 4: "I", 8: "Q"}
#: The widths of a page's typed views: the page itself (1) and its
#: ``memoryview`` casts.
VIEW_WIDTHS = (1, *_VIEW_FORMATS)
_OFFSET = layout.PAGE_SIZE - 1
#: Whether the views' native order is the stored (x86) order.
_LITTLE = sys.byteorder == "little"


class PhysicalMemory:
    """Sparse byte-addressable RAM.

    A page's ``bytearray`` and its typed views are created by the first
    write that touches it and are never replaced or dropped afterwards;
    the address space's TLB relies on that identity."""

    def __init__(self, size: int):
        if size <= 0 or size % layout.PAGE_SIZE:
            raise ValueError("RAM size must be a positive multiple of the page size")
        self.size = size
        self._pages: dict[int, bytearray] = {}
        #: Page frame -> its views by width (see :data:`VIEW_WIDTHS`).
        self._views: dict[int, dict[int, object]] = {}

    def _page(self, pfn: int) -> bytearray:
        page = self._pages.get(pfn)
        if page is None:
            page = bytearray(layout.PAGE_SIZE)
            self._pages[pfn] = page
            if _LITTLE:
                views = {1: page}
                for width, fmt in _VIEW_FORMATS.items():
                    views[width] = memoryview(page).cast(fmt)
                self._views[pfn] = views
        return page

    def views(self, pfn: int) -> Optional[dict[int, object]]:
        """Page frame ``pfn``'s views by width, or None while no write
        has touched it (or on a big-endian host)."""
        return self._views.get(pfn)

    def check_range(self, phys: int, size: int) -> None:
        if phys < 0 or size < 0 or phys + size > self.size:
            raise MemoryFault(phys, size, False, "beyond end of RAM")

    def read(self, phys: int, size: int) -> bytes:
        self.check_range(phys, size)
        pfn, off = divmod(phys, layout.PAGE_SIZE)
        if off + size <= layout.PAGE_SIZE:  # one page: the DMA common case
            page = self._pages.get(pfn)
            return bytes(size) if page is None else bytes(page[off : off + size])
        out = bytearray()
        while size > 0:
            pfn, off = divmod(phys, layout.PAGE_SIZE)
            chunk = min(size, layout.PAGE_SIZE - off)
            page = self._pages.get(pfn)
            if page is None:
                out += b"\x00" * chunk
            else:
                out += page[off : off + chunk]
            phys += chunk
            size -= chunk
        return bytes(out)

    def write(self, phys: int, data: bytes) -> None:
        size = len(data)
        self.check_range(phys, size)
        pfn, off = divmod(phys, layout.PAGE_SIZE)
        if 0 < size <= layout.PAGE_SIZE - off:  # one page, as in ``read``
            self._page(pfn)[off : off + size] = data
            return
        pos = 0
        while pos < size:
            pfn, off = divmod(phys + pos, layout.PAGE_SIZE)
            chunk = min(size - pos, layout.PAGE_SIZE - off)
            self._page(pfn)[off : off + chunk] = data[pos : pos + chunk]
            pos += chunk

    def read_int(self, phys: int, size: int) -> int:
        """The little-endian unsigned ``size``-byte integer at ``phys``:
        one index into the page's view of that width when the access is
        aligned to it, else the bytes of an in-page access; a
        page-crossing access or a never-written page goes through
        :meth:`read`, so it keeps its range check and reads zeros without
        materializing anything."""
        views = self._views.get(phys >> layout.PAGE_SHIFT)
        off = phys & _OFFSET
        if views is None or off + size > layout.PAGE_SIZE:
            return int.from_bytes(self.read(phys, size), "little")
        if size not in views or off % size:
            return int.from_bytes(views[1][off : off + size], "little")
        return views[size][off // size]

    def write_int(self, phys: int, size: int, value: int) -> None:
        """Store ``value`` (which must fit) as ``size`` little-endian
        bytes at ``phys``, like :meth:`read_int`; a page-crossing access
        or a never-written page goes through :meth:`write`."""
        views = self._views.get(phys >> layout.PAGE_SHIFT)
        off = phys & _OFFSET
        if views is None or off + size > layout.PAGE_SIZE:
            self.write(phys, value.to_bytes(size, "little"))
        elif size not in views or off % size:
            views[1][off : off + size] = value.to_bytes(size, "little")
        else:
            views[size][off // size] = value

    def unpack(self, codec: struct.Struct, phys: int) -> tuple:
        """The fields of ``codec`` at ``phys``: ``unpack_from`` on the
        page, or on :meth:`read`'s bytes for a page-crossing access or a
        never-written page."""
        page = self._pages.get(phys >> layout.PAGE_SHIFT)
        if page is not None and (phys & _OFFSET) + codec.size <= layout.PAGE_SIZE:
            return codec.unpack_from(page, phys & _OFFSET)
        return codec.unpack(self.read(phys, codec.size))

    @property
    def resident_bytes(self) -> int:
        """RAM actually materialized (for tests and stats)."""
        return len(self._pages) * layout.PAGE_SIZE


class MMIODevice(Protocol):
    """A device exposing a register window."""

    def mmio_read(self, offset: int, size: int) -> int: ...

    def mmio_write(self, offset: int, size: int, value: int) -> None: ...


class _Mapping:
    __slots__ = ("base", "size", "end", "phys_base", "device", "name",
                 "writable")

    def __init__(
        self,
        base: int,
        size: int,
        phys_base: Optional[int],
        device: Optional[MMIODevice],
        name: str,
        writable: bool = True,
    ):
        self.base = base
        self.size = size
        #: Mappings never move, so their end is fixed.
        self.end = base + size
        self.phys_base = phys_base
        self.device = device
        self.name = name
        self.writable = writable

    def __repr__(self) -> str:  # pragma: no cover
        kind = "mmio" if self.device is not None else "ram"
        return f"<Mapping {self.name} {kind} {self.base:#x}+{self.size:#x}>"


class KernelAddressSpace:
    """Virtual address routing for the simulated kernel."""

    def __init__(self, ram: PhysicalMemory):
        self.ram = ram
        self._mappings: list[_Mapping] = []
        self._bases: list[int] = []
        #: Software TLB: width -> virtual page number -> the RAM page's
        #: view of that width, for loads (``rtlb``) and stores
        #: (``wtlb``).  Emptied in place on every map/unmap, never
        #: rebound: compiled code's namespaces hold these dicts.
        self.rtlb: dict[int, dict[int, object]] = {n: {} for n in VIEW_WIDTHS}
        self.wtlb: dict[int, dict[int, object]] = {n: {} for n in VIEW_WIDTHS}
        self.map_linear(
            layout.DIRECT_MAP_BASE, ram.size, phys_base=0, name="direct-map"
        )

    # -- mapping management ---------------------------------------------------

    def map_linear(
        self, base: int, size: int, phys_base: int, name: str, writable: bool = True
    ) -> _Mapping:
        """Map [base, base+size) onto physical [phys_base, ...)."""
        m = _Mapping(base, size, phys_base, None, name, writable)
        self._insert(m)
        return m

    def map_mmio(self, base: int, size: int, device: MMIODevice, name: str) -> _Mapping:
        m = _Mapping(base, size, None, device, name)
        self._insert(m)
        return m

    def unmap(self, base: int) -> None:
        idx = bisect.bisect_left(self._bases, base)
        if idx >= len(self._mappings) or self._mappings[idx].base != base:
            raise KeyError(f"no mapping at {base:#x}")
        del self._mappings[idx]
        del self._bases[idx]
        self._tlb_flush()

    def _insert(self, m: _Mapping) -> None:
        idx = bisect.bisect_left(self._bases, m.base)
        if idx > 0 and self._mappings[idx - 1].end > m.base:
            raise ValueError(f"mapping {m.name} overlaps {self._mappings[idx-1].name}")
        if idx < len(self._mappings) and m.end > self._mappings[idx].base:
            raise ValueError(f"mapping {m.name} overlaps {self._mappings[idx].name}")
        self._mappings.insert(idx, m)
        self._bases.insert(idx, m.base)
        self._tlb_flush()

    def _tlb_flush(self) -> None:
        for table in (*self.rtlb.values(), *self.wtlb.values()):
            table.clear()

    def tlb_fill(self, m: _Mapping, addr: int) -> None:
        """Enter ``addr``'s page in the TLB after an access through the
        RAM mapping ``m`` succeeded, if ``m`` covers the whole page, the
        physical page is page-aligned and inside RAM, and it already
        exists; it enters every view table of ``rtlb`` (and of ``wtlb``
        for a writable ``m``).  A page no write has touched stays out, so
        a load never materializes one (``Resident`` in ``/proc/meminfo``
        would show it); such a page keeps reading 0 through the miss
        path."""
        shift = layout.PAGE_SHIFT
        vpn = addr >> shift
        va = vpn << shift
        if va < m.base or va + layout.PAGE_SIZE > m.end:
            return
        phys = m.phys_base + (va - m.base)
        if phys & (layout.PAGE_SIZE - 1) or phys + layout.PAGE_SIZE > self.ram.size:
            return
        views = self.ram.views(phys >> shift)
        if views is None:
            return
        for width, view in views.items():
            self.rtlb[width][vpn] = view
            if m.writable:
                self.wtlb[width][vpn] = view

    def find(self, addr: int) -> Optional[_Mapping]:
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            m = self._mappings[idx]
            if m.base <= addr < m.end:
                return m
        return None

    def mappings(self) -> list[_Mapping]:
        return list(self._mappings)

    # -- access ------------------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        m = self.find(addr)
        if m is None or addr + size > m.end:
            raise MemoryFault(addr, size, False, "no mapping")
        if m.device is not None:
            value = m.device.mmio_read(addr - m.base, size)
            return value.to_bytes(size, "little")
        assert m.phys_base is not None
        return self.ram.read(m.phys_base + (addr - m.base), size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        m = self.find(addr)
        if m is None or addr + len(data) > m.end:
            raise MemoryFault(addr, len(data), True, "no mapping")
        if not m.writable:
            raise MemoryFault(addr, len(data), True, f"{m.name} is read-only")
        if m.device is not None:
            m.device.mmio_write(
                addr - m.base, len(data), int.from_bytes(data, "little")
            )
            return
        assert m.phys_base is not None
        self.ram.write(m.phys_base + (addr - m.base), data)

    def read_int(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def write_int(self, addr: int, size: int, value: int) -> None:
        self.write_bytes(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def read_f32(self, addr: int) -> float:
        return struct.unpack("<f", self.read_bytes(addr, 4))[0]

    def write_f32(self, addr: int, value: float) -> None:
        self.write_bytes(addr, pack_f32(value))

    def read_f64(self, addr: int) -> float:
        return struct.unpack("<d", self.read_bytes(addr, 8))[0]

    def write_f64(self, addr: int, value: float) -> None:
        self.write_bytes(addr, struct.pack("<d", value))

    def read_cstring(self, addr: int, max_len: int = 4096) -> bytes:
        """Read a NUL-terminated string (for printk-style natives)."""
        out = bytearray()
        while len(out) < max_len:
            b = self.read_bytes(addr + len(out), 1)[0]
            if b == 0:
                break
            out.append(b)
        return bytes(out)


__all__ = ["KernelAddressSpace", "MMIODevice", "PhysicalMemory", "VIEW_WIDTHS"]

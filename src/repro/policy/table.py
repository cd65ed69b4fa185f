"""The paper's policy structure: a flat table of at most 64 regions.

§3.1: "We use a table describing a maximum of 64 memory regions and thus
a permissions check has O(n) time complexity.  A table was chosen in
order to minimize pointer chasing, lending speedup over other
implementations like the Linux kernel's red-black tree ... Each entry
stores a region's lower bound, length, and protection flags.  When the
guard function is invoked, the policy module then simply walks the region
table and checks if the access should be permitted."

The check returns how many entries it scanned so the VM's timing model
can charge the machine-dependent per-entry cost (this is the quantity
Figure 5 varies).

A :class:`RegionTable` is a handle to one immutable
:class:`TableVersion`: a regions tuple, a default and an epoch.  Every
write builds the next version, assigns it, then calls ``on_change``
once, so a write cannot skip the announcement; nothing ever mutates a
version, so ``snapshot()`` hands the control plane the version itself
to publish per-CPU under RCU, as eBPF maps publish whole objects.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Optional

from .region import Decision, Region

MAX_REGIONS = 64


class PolicyTableFull(ValueError):
    """More than :data:`MAX_REGIONS` regions requested."""


class TableVersion:
    """One immutable policy version: the regions in first-match order,
    the default for an access none covers, and ``epoch``, the count of
    region changes that led here (certificates record it).  Every query
    is answered here; a table forwards to its current version."""

    __slots__ = ("_regions", "default_allow", "epoch")

    def __init__(self, regions: tuple, default_allow: bool, epoch: int):
        self._regions = regions
        self.default_allow = default_allow
        self.epoch = epoch

    # -- the next version ------------------------------------------------------

    def added(self, region: Region) -> "TableVersion":
        """The next version: ``region`` appended."""
        return type(self)(self._regions + (region,), self.default_allow,
                          self.epoch + 1)

    def removed(self, idx: int) -> "TableVersion":
        """The next version: the region at ``idx`` dropped."""
        regions = self._regions
        return type(self)(regions[:idx] + regions[idx + 1:],
                          self.default_allow, self.epoch + 1)

    def with_default(self, allow: bool) -> "TableVersion":
        """The next version: the same regions, index and epoch (no
        region moved), with ``allow`` for an access none covers."""
        version = copy.copy(self)
        version.default_allow = allow
        return version

    # -- queries ---------------------------------------------------------------

    def check(self, addr: int, size: int, flags: int) -> Decision:
        """The guard-path permission check.  Returns (allowed, scanned)."""
        regions = self._regions
        for i, r in enumerate(regions):
            if r.base <= addr and addr + size <= r.base + r.length:
                return (r.prot & flags) == flags, i + 1
        return self.default_allow, len(regions)

    def check_range(self, lo: int, hi: int, size: int, flags: int) -> bool:
        """Static range query for the load-time verifier: would ``check``
        allow *every* access ``[a, a + size)`` with ``a`` in ``[lo, hi]``?

        Exact under first-match semantics: walk the table in order,
        tracking the interval set of start addresses not yet decided by
        an earlier region.  A region decides the starts it fully covers;
        if any region that decides some starts denies ``flags``, the
        range is not provably allowed.  Starts no region covers fall
        through to ``default_allow``.
        """
        if size <= 0 or hi < lo:
            return False
        undecided = [(lo, hi)]
        for r in self._regions:
            if not undecided:
                break
            # Start addresses whose whole access fits inside this region.
            rlo = r.base
            rhi = r.base + r.length - size
            if rhi < rlo or rhi < lo or rlo > hi:
                # Decides no start at all, or none inside [lo, hi]
                # (which holds every undecided atom).
                continue
            remaining = []
            decided_any = False
            for ulo, uhi in undecided:
                ilo, ihi = max(ulo, rlo), min(uhi, rhi)
                if ilo > ihi:
                    remaining.append((ulo, uhi))
                    continue
                decided_any = True
                if ilo > ulo:
                    remaining.append((ulo, ilo - 1))
                if ihi < uhi:
                    remaining.append((ihi + 1, uhi))
            if decided_any and (r.prot & flags) != flags:
                return False
            undecided = remaining
        if undecided and not self.default_allow:
            return False
        return True

    def digest(self, prefix: str = "") -> str:
        """Canonical content digest (``prefix``, regions in table order,
        default).

        Index-structure independent: a linear and an interval version
        holding the same regions produce the same digest, because their
        ``check`` decisions are identical.  Verification certificates
        record this to detect stale policy at insmod; the control plane
        prefixes its generation.
        """
        h = hashlib.sha256(prefix.encode())
        for r in self._regions:
            h.update(f"{r.base:x}|{r.length:x}|{r.prot:x};".encode())
        h.update(f"default={int(self.default_allow)}".encode())
        return h.hexdigest()

    def overlapping(self, base: int, length: int) -> Optional[Region]:
        """The first region whose [base, base+length) intersects the
        given range (None if disjoint from every entry).  Namespace-scoped
        mutation paths use this to reject overlap/duplicate adds with
        ``-EEXIST`` instead of silently leaning on first-match priority."""
        if length <= 0:
            return None
        lo, hi = base, base + length
        for r in self._regions:
            if r.base < hi and lo < r.base + r.length:
                return r
        return None

    def find(self, addr: int, size: int) -> Optional[Region]:
        for r in self._regions:
            if r.covers(addr, size):
                return r
        return None

    def regions(self) -> list[Region]:
        return list(self._regions)

    def __len__(self) -> int:
        return len(self._regions)


class RegionTable:
    """Linear-scan region table; first fully-covering region wins.

    A handle to its current :attr:`version`.  The writes (:meth:`add`,
    :meth:`remove`, :meth:`clear`, :meth:`insert`, :meth:`pop` and a
    ``default_allow`` assignment) each build the next version, assign
    it, then call ``on_change`` once.  ``add`` and ``pop`` (and so
    ``remove``) derive it from the current one (``added``/``removed``),
    as a ``default_allow`` write does (``with_default``); ``clear`` and
    ``insert`` build it from its regions.  Only region changes bump
    ``epoch``, which certificates record."""

    name = "linear-table"
    version_type = TableVersion

    def __init__(self, default_allow: bool = False,
                 max_regions: int = MAX_REGIONS):
        self.max_regions = max_regions
        self.version = self.version_type((), default_allow, 0)
        #: Called with the table after every write.  The policy module
        #: reading the table sets it to its one write hook.
        self.on_change = None

    def _write(self, version: TableVersion) -> None:
        self.version = version
        if self.on_change is not None:
            self.on_change(self)

    def _rebuild(self, regions: tuple) -> None:
        v = self.version
        self._write(self.version_type(regions, v.default_allow, v.epoch + 1))

    def _reserve(self) -> None:
        if len(self.version) >= self.max_regions:
            raise PolicyTableFull(
                f"policy table is limited to {self.max_regions} regions"
            )

    # -- mutation ----------------------------------------------------------

    @property
    def default_allow(self) -> bool:
        """The decision for an access no region covers."""
        return self.version.default_allow

    @default_allow.setter
    def default_allow(self, allow: bool) -> None:
        self._write(self.version.with_default(allow))

    @property
    def epoch(self) -> int:
        return self.version.epoch

    def add(self, region: Region) -> int:
        """Append a region; returns its index."""
        self._reserve()
        self._write(self.version.added(region))
        return len(self.version) - 1

    def insert(self, idx: int, region: Region) -> None:
        """Put ``region`` at position ``idx`` (first-match priority)."""
        self._reserve()
        regions = self.version._regions
        self._rebuild(regions[:idx] + (region,) + regions[idx:])

    def pop(self, idx: int) -> Region:
        """Remove and return the region at position ``idx``."""
        v = self.version
        idx = range(len(v))[idx]
        region = v._regions[idx]
        self._write(v.removed(idx))
        return region

    def index_of(self, base: int, length: int) -> Optional[int]:
        """The position of the first region exactly matching
        (base, length), or None."""
        for i, r in enumerate(self.version._regions):
            if r.base == base and r.length == length:
                return i
        return None

    def remove(self, base: int, length: int) -> bool:
        """Remove the first region exactly matching (base, length)."""
        idx = self.index_of(base, length)
        if idx is None:
            return False
        self.pop(idx)
        return True

    def clear(self) -> None:
        self._rebuild(())

    # -- queries: the current version's ----------------------------------------

    def snapshot(self) -> TableVersion:
        """The current version, as the control plane publishes it."""
        return self.version

    def check(self, addr: int, size: int, flags: int) -> Decision:
        return self.version.check(addr, size, flags)

    def check_range(self, lo: int, hi: int, size: int, flags: int) -> bool:
        return self.version.check_range(lo, hi, size, flags)

    def digest(self) -> str:
        return self.version.digest()

    def overlapping(self, base: int, length: int) -> Optional[Region]:
        return self.version.overlapping(base, length)

    def find(self, addr: int, size: int) -> Optional[Region]:
        return self.version.find(addr, size)

    def regions(self) -> list[Region]:
        return self.version.regions()

    def __len__(self) -> int:
        return len(self.version)

    def describe(self) -> str:
        regions = self.version._regions
        lines = [
            f"policy: {len(regions)} region(s), "
            f"default {'ALLOW' if self.default_allow else 'DENY'}"
        ]
        lines += [f"  {i:2d}: {r.describe()}" for i, r in enumerate(regions)]
        return "\n".join(lines)


__all__ = ["MAX_REGIONS", "PolicyTableFull", "RegionTable", "TableVersion"]

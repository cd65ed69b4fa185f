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
"""

from __future__ import annotations

import hashlib
from typing import Optional

from .region import Decision, Region

MAX_REGIONS = 64


class PolicyTableFull(ValueError):
    """More than :data:`MAX_REGIONS` regions requested."""


class RegionTableReplica:
    """An immutable point-in-time copy of a :class:`RegionTable`.

    This is what the control plane publishes per-CPU under RCU: readers
    walk their CPU-local replica lock-free while writers mutate the
    master and publish a fresh snapshot behind a grace period.
    ``check`` is byte-for-byte the master's scan — same first-match
    semantics, same ``(allowed, scanned)`` counts — so replicated reads
    are indistinguishable from master reads in every simulated counter.

    ``(epoch, default_allow)`` are the master's values at snapshot time.
    """

    name = "linear-table-replica"

    __slots__ = ("default_allow", "epoch", "_regions")

    def __init__(self, regions: tuple, default_allow: bool, epoch: int):
        self._regions = regions
        self.default_allow = default_allow
        self.epoch = epoch

    def check(self, addr: int, size: int, flags: int) -> Decision:
        regions = self._regions
        for i, r in enumerate(regions):
            if r.base <= addr and addr + size <= r.base + r.length:
                return (r.prot & flags) == flags, i + 1
        return self.default_allow, len(regions)

    def regions(self) -> list[Region]:
        return list(self._regions)

    def __len__(self) -> int:
        return len(self._regions)


class RegionTable:
    """Linear-scan region table; first fully-covering region wins."""

    name = "linear-table"

    def __init__(self, default_allow: bool = False,
                 max_regions: int = MAX_REGIONS):
        self._default_allow = default_allow
        self.max_regions = max_regions
        self._regions: list[Region] = []
        #: Bumped by :meth:`changed` on every region change.
        self.epoch = 0
        #: Called with the table after every write: a region change
        #: (:meth:`changed`) or a ``default_allow`` write.  The policy
        #: module reading the table sets it to its one write hook.
        self.on_change = None

    @property
    def default_allow(self) -> bool:
        """The decision for an access no region covers."""
        return self._default_allow

    @default_allow.setter
    def default_allow(self, allow: bool) -> None:
        # No region moved, so ``epoch`` (which certificates record)
        # stays; the write is still announced.
        self._default_allow = allow
        if self.on_change is not None:
            self.on_change(self)

    def changed(self, delta=None) -> None:
        """Announce a region change: bump ``epoch``, bring any index
        up to date (:meth:`_reindex`), then call ``on_change`` once,
        with the table fully updated.  The mutators call it, and so
        must code that edits ``_regions`` directly (the control plane's
        namespace ops and their undos).  ``delta`` derives a current
        index from the previous one (an add or a remove); None leaves
        the index to be rebuilt."""
        self.epoch += 1
        self._reindex(delta)
        if self.on_change is not None:
            self.on_change(self)

    def _reindex(self, delta) -> None:
        """Carry an index forward by ``delta``; the linear table has none."""

    # -- mutation ----------------------------------------------------------

    def add(self, region: Region) -> int:
        """Append a region; returns its index."""
        if len(self._regions) >= self.max_regions:
            raise PolicyTableFull(
                f"policy table is limited to {self.max_regions} regions"
            )
        self._regions.append(region)
        self.changed(lambda index: index.added(region))
        return len(self._regions) - 1

    def remove(self, base: int, length: int) -> bool:
        """Remove the first region exactly matching (base, length)."""
        for i, r in enumerate(self._regions):
            if r.base == base and r.length == length:
                self._remove_at(i)
                return True
        return False

    def _remove_at(self, i: int) -> None:
        del self._regions[i]
        self.changed(lambda index: index.removed(i))

    def clear(self) -> None:
        self._regions.clear()
        self.changed()

    # -- queries --------------------------------------------------------------

    def check(self, addr: int, size: int, flags: int) -> Decision:
        """The guard-path permission check.  Returns (allowed, scanned)."""
        regions = self._regions
        for i, r in enumerate(regions):
            if r.base <= addr and addr + size <= r.base + r.length:
                return (r.prot & flags) == flags, i + 1
        return self._default_allow, len(regions)

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

    def digest(self) -> str:
        """Canonical content digest (regions in table order + default).

        Index-structure independent: a linear table and an interval table
        holding the same regions produce the same digest, because their
        ``check`` decisions are identical.  Verification certificates
        record this to detect stale policy at insmod.
        """
        h = hashlib.sha256()
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

    def snapshot(self) -> RegionTableReplica:
        """An immutable replica of the current table (for RCU publish)."""
        return RegionTableReplica(
            tuple(self._regions), self.default_allow, self.epoch
        )

    def regions(self) -> list[Region]:
        return list(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    def describe(self) -> str:
        lines = [
            f"policy: {len(self._regions)} region(s), "
            f"default {'ALLOW' if self.default_allow else 'DENY'}"
        ]
        lines += [f"  {i:2d}: {r.describe()}" for i, r in enumerate(self._regions)]
        return "\n".join(lines)


__all__ = ["MAX_REGIONS", "PolicyTableFull", "RegionTable", "RegionTableReplica"]

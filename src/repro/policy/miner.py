"""Policy mining: derive a practical region policy from an audit run.

The paper closes with "the many unresolved questions about ... the
creation of memory region policies that are both practical and secure"
(§1 contributions list; §5 asks for "a more scalable way to handle many
memory regions").  This module is our answer to the *practical* half:

1. run the module in **audit mode** (guards log instead of panic) under a
   representative workload;
2. record every (address, size, flags) the module touches;
3. coalesce the touched bytes into at most ``max_regions`` regions,
   merging the nearest-gap neighbours first and unioning their
   permission flags (merging is strictly permissive-upward: the mined
   policy always allows at least what was observed, never less);
4. install the result as a default-deny policy.

The mined policy is minimal-ish and *workload-complete*: replaying the
audit workload under enforcement triggers zero violations, while
everything the module never touched stays firewalled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .manager import PolicyManager
from .module import MODE_AUDIT, MODULE_NAME, CaratPolicyModule
from .region import Region
from .table import MAX_REGIONS


@dataclass
class AccessRecord:
    """One observed access during the audit run."""

    addr: int
    size: int
    flags: int


@dataclass
class MinedPolicy:
    """The result of a mining run."""

    regions: list[Region]
    observed_accesses: int
    observed_bytes: int
    #: Bytes the coalescing step allowed beyond what was observed
    #: (gap slack): the privacy/precision cost of the 64-region budget.
    slack_bytes: int = 0

    def install(self, manager: PolicyManager) -> None:
        """Install as a default-deny policy via the ioctl interface."""
        manager.clear()
        for r in self.regions:
            manager.add_region(r.base, r.length, r.prot)
        manager.set_default(False)

    def covers(self, addr: int, size: int, flags: int) -> bool:
        return any(
            r.covers(addr, size) and r.permits(flags) for r in self.regions
        )

    def describe(self) -> str:
        lines = [
            f"mined policy: {len(self.regions)} regions from "
            f"{self.observed_accesses} accesses "
            f"({self.observed_bytes} bytes touched, "
            f"{self.slack_bytes} bytes of merge slack)"
        ]
        lines += [f"  {r.describe()}" for r in self.regions]
        return "\n".join(lines)


class PolicyMiner:
    """Records guard traffic in audit mode and coalesces it into regions."""

    def __init__(self, policy: CaratPolicyModule, max_regions: int = MAX_REGIONS):
        if max_regions < 1:
            raise ValueError("need at least one region")
        self.policy = policy
        self.max_regions = max_regions
        self.records: list[AccessRecord] = []
        self._saved_mode = policy.mode
        self._recording = False

    # -- recording ----------------------------------------------------------

    def __enter__(self) -> "PolicyMiner":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        """Begin recording: wrap the policy guard with a tap, audit-only."""
        if self._recording:
            raise RuntimeError("miner already recording")
        self._saved_mode = self.policy.mode
        self.policy._set_global_mode(MODE_AUDIT)
        kernel = self.policy.kernel
        original = self.policy._guard

        def tapped(ctx, addr, size, flags, module_name="?"):
            self.records.append(AccessRecord(int(addr), int(size), int(flags)))
            return original(ctx, addr, size, flags, module_name)

        # Swap the native binding (the §3.2 swappable-guard property at work).
        self._rebind_guards(kernel, tapped)
        self._recording = True

    def stop(self) -> None:
        if not self._recording:
            return
        self._rebind_guards(self.policy.kernel, self.policy._guard)
        self.policy._set_global_mode(self._saved_mode)
        self._recording = False

    def _rebind_guards(self, kernel, memory_guard) -> None:
        """Re-export the policy module's symbols with ``memory_guard`` as
        the carat_guard implementation."""
        kernel.retire_symbols(MODULE_NAME)
        self.policy._export_guards(memory_guard)

    # -- coalescing ------------------------------------------------------------

    def mine(self, page_align: bool = False) -> MinedPolicy:
        """Coalesce the recorded accesses into at most ``max_regions``."""
        if not self.records:
            return MinedPolicy(regions=[], observed_accesses=0, observed_bytes=0)
        # 1. Exact intervals with flags.
        intervals: list[tuple[int, int, int]] = []  # (start, end, flags)
        for rec in self.records:
            start, end = rec.addr, rec.addr + max(rec.size, 1)
            if page_align:
                start &= ~0xFFF
                end = (end + 0xFFF) & ~0xFFF
            intervals.append((start, end, rec.flags))
        intervals.sort()
        # 2. Merge overlapping/adjacent intervals, unioning flags.
        merged: list[list[int]] = []
        for start, end, flags in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
                merged[-1][2] |= flags
            else:
                merged.append([start, end, flags])
        observed_bytes = sum(e - s for s, e, _ in merged)
        # 3. Reduce to the region budget by repeatedly closing the
        #    smallest gap between neighbours (a classic 1-D clustering).
        slack = 0
        while len(merged) > self.max_regions:
            gaps = [
                (merged[i + 1][0] - merged[i][1], i)
                for i in range(len(merged) - 1)
            ]
            gap, i = min(gaps)
            slack += gap
            merged[i][1] = merged[i + 1][1]
            merged[i][2] |= merged[i + 1][2]
            del merged[i + 1]
        regions = [Region(s, e - s, f) for s, e, f in merged]
        return MinedPolicy(
            regions=regions,
            observed_accesses=len(self.records),
            observed_bytes=observed_bytes,
            slack_bytes=slack,
        )

    def reset(self) -> None:
        self.records.clear()


__all__ = ["AccessRecord", "MinedPolicy", "PolicyMiner"]

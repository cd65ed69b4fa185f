"""policy-manager: the user-space policy configuration tool (Figure 1).

"a root user can communicate with the policy module through an ioctl
system call to add or remove regions from the table using a simple
application, policy-manager" (§3.1).  This class is that application: it
only ever talks to the kernel through ``ioctl`` on ``/dev/carat``, with
packed binary payloads, exactly like its C counterpart would.
"""

from __future__ import annotations

import struct

from .. import abi
from ..kernel import layout
from ..kernel.kernel import Kernel
from ..kernel.module_loader import LoadedModule
from . import module as pm
from .region import Region


class PolicyManager:
    """User-space client for /dev/carat."""

    def __init__(self, kernel: Kernel, uid: int = 0):
        self.kernel = kernel
        self.uid = uid

    # -- raw ioctl wrappers --------------------------------------------------

    def _ioctl(self, cmd: int, arg: bytes = b"") -> bytes:
        return self.kernel.devices.ioctl(pm.DEVICE_PATH, cmd, arg, uid=self.uid)

    def add_region(self, base: int, length: int, prot: int) -> int:
        """Add a region; returns its table index."""
        out = self._ioctl(
            pm.CMD_ADD_REGION, struct.pack("<QQI", base, length, prot)
        )
        return struct.unpack("<I", out)[0]

    def remove_region(self, base: int, length: int) -> bool:
        out = self._ioctl(pm.CMD_DEL_REGION, struct.pack("<QQ", base, length))
        return bool(struct.unpack("<I", out)[0])

    def clear(self) -> None:
        self._ioctl(pm.CMD_CLEAR)

    def set_default(self, allow: bool) -> None:
        self._ioctl(pm.CMD_SET_DEFAULT, struct.pack("<I", int(allow)))

    def stats(self) -> dict[str, int]:
        out = self._ioctl(pm.CMD_GET_STATS)
        checks, allowed, denied, scanned, regions = struct.unpack("<QQQQQ", out)
        return {
            "checks": checks,
            "allowed": allowed,
            "denied": denied,
            "entries_scanned": scanned,
            "regions": regions,
        }

    def count(self) -> int:
        return struct.unpack("<I", self._ioctl(pm.CMD_COUNT))[0]

    def get_region(self, index: int) -> Region:
        out = self._ioctl(pm.CMD_GET_REGION, struct.pack("<I", index))
        base, length, prot = struct.unpack("<QQI", out)
        return Region(base, length, prot)

    def allow_intrinsic(self, name: str) -> None:
        self._ioctl(pm.CMD_ALLOW_INTRINSIC, name.encode() + b"\x00")

    def deny_intrinsic(self, name: str) -> None:
        self._ioctl(pm.CMD_DENY_INTRINSIC, name.encode() + b"\x00")

    def add_region_for(self, module_name: str, base: int, length: int,
                       prot: int) -> int:
        """Add a region to ``module_name``'s private policy table.

        A module with a private table is checked against it alone
        (default-deny); modules without one use the global policy."""
        name = module_name.encode()
        if len(name) > 32:
            raise ValueError("module name too long (32 bytes max)")
        payload = name.ljust(32, b"\x00") + struct.pack(
            "<QQI", base, length, prot
        )
        out = self._ioctl(pm.CMD_ADD_REGION_FOR, payload)
        return struct.unpack("<I", out)[0]

    def clear_module_policy(self, module_name: str) -> None:
        """Drop a module's private table (it reverts to the global one)."""
        self._ioctl(pm.CMD_CLEAR_FOR, module_name.encode() + b"\x00")

    def set_call_allowlist(self, enabled: bool) -> None:
        """Toggle the §5 kernel-call allowlist (off = allow-all)."""
        self._ioctl(pm.CMD_CALL_POLICY, struct.pack("<I", int(enabled)))

    def allow_call(self, name: str) -> None:
        self._ioctl(pm.CMD_ALLOW_CALL, name.encode() + b"\x00")

    def deny_call(self, name: str) -> None:
        self._ioctl(pm.CMD_DENY_CALL, name.encode() + b"\x00")

    # -- graceful enforcement --------------------------------------------------

    @staticmethod
    def _packed_name(module_name: str) -> bytes:
        name = module_name.encode()
        if len(name) > 32:
            raise ValueError("module name too long (32 bytes max)")
        return name.ljust(32, b"\x00")

    def set_mode(self, mode: str) -> None:
        """Set the global enforcement mode: audit/panic/eject/isolate."""
        code = pm.MODE_WIRE.get(mode)
        if code is None:
            raise ValueError(f"unknown enforcement mode {mode!r}")
        self._ioctl(pm.CMD_SET_MODE, struct.pack("<I", code))

    def unquarantine(self, module_name: str) -> bool:
        """Lift the re-insmod quarantine on an ejected module."""
        out = self._ioctl(
            pm.CMD_UNQUARANTINE, self._packed_name(module_name)
        )
        return bool(struct.unpack("<I", out)[0])

    # -- control plane (multi-tenant namespaces, staged rollout) --------------

    def create_tenant(self, name: str, max_regions: int = 256,
                      max_mutations_per_window: int = 1024,
                      violation_budget: int = 64) -> None:
        """Create a policy namespace with quotas."""
        self._ioctl(
            pm.CMD_TENANT_CREATE,
            self._packed_name(name) + struct.pack(
                "<III", max_regions, max_mutations_per_window,
                violation_budget,
            ),
        )

    def delete_tenant(self, name: str) -> None:
        self._ioctl(pm.CMD_TENANT_DELETE, self._packed_name(name))

    def batch_mutate(self, name: str, ops: list[tuple]) -> int:
        """Submit a transactional batch of ``(kind, base, length, prot)``
        ops (kind 0 = add, 1 = del) for tenant ``name``.  All-or-nothing;
        returns the staged generation number."""
        payload = self._packed_name(name) + struct.pack("<I", len(ops))
        for kind, base, length, prot in ops:
            payload += struct.pack("<IQQI", kind, base, length, prot)
        out = self._ioctl(pm.CMD_BATCH_MUTATE, payload)
        return struct.unpack("<Q", out)[0]

    def tenant_stats(self, name: str) -> dict[str, int]:
        out = self._ioctl(pm.CMD_TENANT_STATS, self._packed_name(name))
        fields = (
            "generation", "regions", "batches_applied", "batches_promoted",
            "batches_rejected", "rollbacks", "quota_denials",
            "overlap_rejections", "mutations_window",
        )
        return dict(zip(fields, struct.unpack("<QQQQQQQQQ", out)))

    def cp_status(self) -> dict[str, int]:
        out = self._ioctl(pm.CMD_CP_STATUS)
        fields = (
            "generation", "staged_generation", "tenants", "promotions",
            "rollbacks", "publishes", "publish_retries", "replica_repairs",
        )
        return dict(zip(fields, struct.unpack("<QQQQQQQQ", out)))

    def cp_tick(self) -> int:
        """Advance the control plane one tick; returns 0 (no change),
        1 (staged generation promoted) or 2 (auto-rolled back)."""
        return struct.unpack("<I", self._ioctl(pm.CMD_CP_TICK))[0]

    # -- convenience policies -------------------------------------------------

    def allow(self, base: int, length: int, read: bool = True,
              write: bool = True) -> int:
        prot = (abi.FLAG_READ if read else 0) | (abi.FLAG_WRITE if write else 0)
        return self.add_region(base, length, prot)

    def deny(self, base: int, length: int) -> int:
        return self.add_region(base, length, 0)

    def install_two_region_policy(self) -> None:
        """The paper's Figure 3/4 policy (§4.2 footnote 5): kernel
        addresses (the "high half") allowed, user addresses (the "low
        half") denied."""
        self.clear()
        self.allow(
            layout.KERNEL_SPACE_START,
            (1 << 64) - layout.KERNEL_SPACE_START,
        )
        self.deny(0, layout.USER_SPACE_END + 1)
        self.set_default(False)

    def install_n_region_policy(self, n: int) -> None:
        """The Figure 5 sweep policy: the same checks with ``n`` regions.

        The first ``n - 2`` entries are decoy device windows the driver
        never touches (so every guard scans past them — the worst case for
        the linear table); the final two are the standard pair that
        actually decides.
        """
        if n < 2:
            raise ValueError("need at least the two standard regions")
        self.clear()
        decoy_base = 0x2_0000_0000  # fake MMIO windows; never accessed
        for i in range(n - 2):
            self.allow(decoy_base + i * layout.PAGE_SIZE, layout.PAGE_SIZE)
        self.allow(
            layout.KERNEL_SPACE_START,
            (1 << 64) - layout.KERNEL_SPACE_START,
        )
        self.deny(0, layout.USER_SPACE_END + 1)
        self.set_default(False)

    def allow_module_region(self, loaded: LoadedModule) -> int:
        """Allow a module its own globals."""
        return self.allow(loaded.base, loaded.size)

    def describe(self) -> str:
        lines = []
        for i in range(self.count()):
            lines.append(f"{i:2d}: {self.get_region(i).describe()}")
        return "\n".join(lines) or "(empty policy)"


__all__ = ["PolicyManager"]

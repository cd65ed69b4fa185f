"""The CARAT KOP policy module (paper §3.1).

A native "kernel module" that:

- privately exports the single symbol ``carat_guard`` ("a callback to a
  CARAT CAKE runtime function that is privately exported from the
  kernel", §2),
- owns the policy index (the 64-entry region table by default, swappable
  for any structure in :mod:`repro.policy.structures`),
- registers ``/dev/carat`` and implements the ioctl protocol the
  ``policy-manager`` application speaks (Figure 1),
- on a forbidden access: logs and panics the kernel (§3.1), optionally
  audit-only for research runs.

It also exports ``carat_intrinsic_guard`` for the §5 privileged-intrinsic
extension.
"""

from __future__ import annotations

import struct
from typing import Optional

from .. import abi
from ..kernel.chardev import EEXIST, EINVAL, ENOSPC, ENOTTY, EPERM, IoctlError
from ..kernel.kernel import Kernel
from ..kernel.panic import ViolationFault
from ..kernel.smp import PerCpu
from ..vm.interp import GuardViolation
from .region import Region
from .table import PolicyTableFull, RegionTable

# ioctl command numbers (arbitrary but stable; think _IOW('k', n, ...)).
CMD_ADD_REGION = 0xC0DE0001
CMD_DEL_REGION = 0xC0DE0002
CMD_CLEAR = 0xC0DE0003
CMD_SET_DEFAULT = 0xC0DE0004
CMD_GET_STATS = 0xC0DE0005
CMD_GET_REGION = 0xC0DE0006
CMD_COUNT = 0xC0DE0007
# 0xC0DE0008 is retired (a boolean enforce flag); never reuse it, so an
# old client gets ENOTTY rather than another command's meaning.
CMD_ALLOW_INTRINSIC = 0xC0DE0009
CMD_DENY_INTRINSIC = 0xC0DE000A
CMD_ALLOW_CALL = 0xC0DE000B
CMD_DENY_CALL = 0xC0DE000C
CMD_CALL_POLICY = 0xC0DE000D  # arg: u32, 0 = allow-all, 1 = allowlist
#: Per-module region ops: payload = 32-byte NUL-padded module name,
#: then the same struct as the global variant.
CMD_ADD_REGION_FOR = 0xC0DE000E
CMD_CLEAR_FOR = 0xC0DE000F
# Graceful-enforcement ioctls (module ejection work).
CMD_SET_MODE = 0xC0DE0010      # arg: u32 mode code
CMD_SET_MODE_FOR = 0xC0DE0011  # arg: 32-byte name + u32 code (4 = clear)
CMD_GET_MODE = 0xC0DE0012      # arg: empty (global) or 32-byte name
CMD_GET_VIOLATIONS = 0xC0DE0013  # arg: 32-byte name -> u64 count
CMD_UNQUARANTINE = 0xC0DE0014  # arg: 32-byte name -> u32 lifted
# Tracing-subsystem ioctls (see repro.trace).
CMD_TRACE_ENABLE = 0xC0DE0015   # arg: empty
CMD_TRACE_DISABLE = 0xC0DE0016  # arg: empty
CMD_TRACE_SNAPSHOT = 0xC0DE0017  # arg: empty -> u64 stored, lost, total
CMD_TRACE_RESET = 0xC0DE0018    # arg: empty
# Control-plane ioctls (multi-tenant namespaces + staged rollout; see
# repro.policy.controlplane).  All require an attached control plane.
CMD_TENANT_CREATE = 0xC0DE0020  # 32-byte name + u32 x3 quota
CMD_TENANT_DELETE = 0xC0DE0021  # 32-byte name
CMD_BATCH_MUTATE = 0xC0DE0022   # 32-byte name + u32 count + ops -> u64 gen
CMD_TENANT_STATS = 0xC0DE0023   # 32-byte name -> u64 x9
CMD_CP_STATUS = 0xC0DE0024      # empty -> u64 x8
CMD_CP_TICK = 0xC0DE0025        # empty -> u32 event (0/1 promote/2 rollback)

_TRACE_STAT_FMT = "<QQQ"  # stored, lost, total
_BATCH_OP_FMT = "<IQQI"   # kind (0 add / 1 del), base, length, prot
_TENANT_QUOTA_FMT = "<III"  # max_regions, max_mutations_per_window, budget
_TENANT_STATS_FMT = "<QQQQQQQQQ"
_CP_STATUS_FMT = "<QQQQQQQQ"

_NAME_LEN = 32

#: Enforcement modes.  ``panic`` is the paper's behaviour (§3.1); the
#: others are this repo's §5 "cleanly handle forbidden accesses" work.
MODE_AUDIT = "audit"
MODE_PANIC = "panic"
MODE_EJECT = "eject"
MODE_ISOLATE = "isolate"
MODES = (MODE_AUDIT, MODE_PANIC, MODE_EJECT, MODE_ISOLATE)

#: Wire encoding of the modes for the ioctl protocol; code 4 on
#: CMD_SET_MODE_FOR clears a per-module override.
MODE_CODES = {0: MODE_AUDIT, 1: MODE_PANIC, 2: MODE_EJECT, 3: MODE_ISOLATE}
MODE_WIRE = {mode: code for code, mode in MODE_CODES.items()}
_CLEAR_MODE_CODE = 4

_REGION_FMT = "<QQI"  # base, length, prot
_STATS_FMT = "<QQQQQ"  # checks, allowed, denied, entries_scanned, regions

DEVICE_PATH = "/dev/carat"
MODULE_NAME = "carat_kop_policy"


class PolicyStats:
    __slots__ = ("checks", "allowed", "denied", "entries_scanned",
                 "comparisons", "structure_checks",
                 "intrinsic_checks", "intrinsic_denied",
                 "guard_cache_hits", "guard_cache_misses")

    def __init__(self) -> None:
        self.checks = 0
        self.allowed = 0
        self.denied = 0
        self.entries_scanned = 0
        # Comparisons actually performed by the policy structure (the
        # quantity abl1 compares): decision-cache hits charge scanned
        # entries for timing but perform no structure comparisons, so
        # ``comparisons / structure_checks`` is the operator-visible
        # mean cost of one real index walk (~n/2 linear, ~log2 n interval).
        self.comparisons = 0
        self.structure_checks = 0
        self.intrinsic_checks = 0
        self.intrinsic_denied = 0
        # Decision-cache traffic (only moves for pure_check indexes).
        self.guard_cache_hits = 0
        self.guard_cache_misses = 0

    def as_dict(self) -> dict[str, int]:
        return {s: getattr(self, s) for s in self.__slots__}


class _GuardCache:
    """Memoized guard decisions for one policy index.

    Valid only while the index's ``(epoch, default_allow)`` token and the
    policy's enforcement epoch are unchanged; any region add/remove/clear
    bumps the index epoch, and any enforcement-mode change (global or
    per-module) bumps the enforcement epoch — either way the next guard
    rebuilds from an empty dict.  Stores the full ``(allowed, scanned)``
    decision so the caller's stats and the machine model's per-entry
    guard cost are identical with and without the cache.
    """

    __slots__ = ("index", "epoch", "default_allow", "enforce_epoch",
                 "decisions")

    #: Safety valve for scan-everything workloads; steady-state driver
    #: loops touch a few dozen distinct (addr, size, flags) keys.
    MAX_ENTRIES = 1 << 16

    def __init__(self, index, enforce_epoch: int = 0):
        self.index = index
        self.epoch = index.epoch
        self.default_allow = index.default_allow
        self.enforce_epoch = enforce_epoch
        self.decisions: dict = {}


class CaratPolicyModule:
    """The policy module; one per kernel."""

    def __init__(self, kernel: Kernel, index=None, mode: str = MODE_PANIC):
        self.kernel = kernel
        self.index = index if index is not None else RegionTable()
        if mode not in MODES:
            raise ValueError(f"unknown enforcement mode {mode!r}")
        #: Global enforcement mode; per-module overrides win over it.
        self.mode = mode
        self.module_modes: dict[str, str] = {}
        #: Per-module denied-access counts (every guard flavour, every
        #: mode — audit runs use this for the would-have-denied tally).
        self.violations: dict[str, int] = {}
        #: Bumped on any mode change; part of the guard cache's validity
        #: token, so stale decisions never outlive an enforcement switch.
        self._enforce_epoch = 0
        ncpus = kernel.smp.ncpus
        #: Per-CPU counters (DEFINE_PER_CPU style): each simulated CPU
        #: bumps only its own slot; :attr:`stats` merges on read.
        self._cpu_stats: PerCpu = PerCpu(ncpus, lambda cpu: PolicyStats())
        #: Per-CPU per-module guard traffic (name -> [checks, denied]).
        #: Separate from :class:`PolicyStats` so the SMP merge identity
        #: and the GET_STATS wire format are untouched; merged on read by
        #: :meth:`driver_stats` for the /proc views.
        self._cpu_module_stats: PerCpu = PerCpu(ncpus, lambda cpu: {})
        self.allowed_intrinsics: set[str] = set()
        #: Kernel symbols a module may call (paper §5 control-flow
        #: extension).  ``None`` = allow-all (the default, like stock
        #: CARAT KOP); a set = strict allowlist.
        self.allowed_calls: Optional[set[str]] = None
        #: Per-module region tables (paper §5: "a different policy table
        #: could be consulted" per module).  A module with an entry here
        #: is checked against ITS table; others use the global index.
        self.module_indexes: dict[str, object] = {}
        #: Guard-decision caches, per CPU and per pure-check index, keyed
        #: by ``id(index)`` (each cache holds a strong ref to its index,
        #: so ids cannot be reused while an entry is live; identity is
        #: re-verified on lookup anyway).  Per-CPU so the hot path never
        #: shares a dict between CPUs — the PR 2 epoch cache, sharded.
        self._guard_caches: PerCpu = PerCpu(ncpus, lambda cpu: {})
        # One-entry binding memo for the hot path, one per CPU: the last
        # index checked on that CPU and its cache (None for impure
        # indexes).  Re-resolved whenever a guard sees a different index.
        self._fast_index: PerCpu = PerCpu(ncpus, lambda cpu: None)
        self._fast_cache: PerCpu = PerCpu(ncpus, lambda cpu: None)
        #: RCU-published per-CPU ``(master, replica)`` slots for the
        #: global region table.  The guard reads its CPU's replica
        #: lock-free; ioctl mutations publish a fresh snapshot and wait a
        #: grace period before the old one is reclaimed.
        self._replicas: PerCpu = PerCpu(ncpus, lambda cpu: None)
        #: Attached :class:`repro.policy.controlplane.PolicyControlPlane`
        #: (``None`` = legacy single-namespace write path).  When set,
        #: the replica read path and mutation publishes delegate to it.
        self.controlplane = None
        self.replica_publishes = 0
        #: Lazy CPU-local rebuilds (master mutated without an RCU
        #: publish — e.g. a test poking ``policy.index`` directly).
        self.replica_refreshes = 0
        self._installed = False
        self._tp_deny = kernel.trace.points["guard:deny"]

    @property
    def stats(self) -> PolicyStats:
        """Merged counters across CPUs (the CPU-0 object itself on
        single-CPU kernels, so exact-count tests see the same object
        semantics as before the per-CPU split)."""
        cpu_stats = self._cpu_stats
        if len(cpu_stats) == 1:
            return cpu_stats[0]
        merged = PolicyStats()
        for s in cpu_stats:
            for field in PolicyStats.__slots__:
                setattr(merged, field, getattr(merged, field) + getattr(s, field))
        return merged

    def stats_per_cpu(self) -> list[dict[str, int]]:
        """Per-CPU counter breakdown (the /proc/carat per-CPU view)."""
        return [s.as_dict() for s in self._cpu_stats]

    def driver_stats(self) -> dict[str, dict[str, int]]:
        """Per-module guard traffic, merged across CPUs: which driver's
        loads/stores the guards are actually checking (and denying)."""
        merged: dict[str, list[int]] = {}
        for shard in self._cpu_module_stats:
            for name, counts in shard.items():
                m = merged.setdefault(name, [0, 0])
                m[0] += counts[0]
                m[1] += counts[1]
        return {
            name: {"checks": checks, "denied": denied}
            for name, (checks, denied) in sorted(merged.items())
        }

    def _record_violation(self, module_name: str, *, kind: str,
                          addr: int = 0, size: int = 0, flags: int = 0,
                          detail: str = "") -> None:
        """The single deny bookkeeping point: every guard flavour funnels
        its violation count (and the guard:deny tracepoint) through here."""
        self.violations[module_name] = self.violations.get(module_name, 0) + 1
        tp = self._tp_deny
        if tp.enabled:
            tp.emit(
                module=module_name,
                kind=kind,
                addr=addr,
                size=size,
                flags=flags,
                detail=detail,
            )

    # -- enforcement modes ----------------------------------------------------

    def _set_global_mode(self, mode: str) -> None:
        """Switch the global mode without logging (the policy miner's
        temporary audit window leaves dmesg untouched)."""
        if mode not in MODES:
            raise ValueError(f"unknown enforcement mode {mode!r}")
        if mode != self.mode:
            self.mode = mode
            self._enforce_epoch += 1

    def set_mode(self, mode: str) -> None:
        """Switch the global enforcement mode (logged)."""
        previous = self.mode
        self._set_global_mode(mode)
        if self.mode != previous:
            self.kernel.dmesg(
                f"{MODULE_NAME}: enforcement mode {previous} -> {self.mode}"
            )

    def set_module_mode(self, module_name: str, mode: Optional[str]) -> None:
        """Set (or, with ``None``, clear) a per-module mode override."""
        if mode is None:
            if self.module_modes.pop(module_name, None) is not None:
                self._enforce_epoch += 1
                self.kernel.dmesg(
                    f"{MODULE_NAME}: mode override cleared for {module_name}"
                )
            return
        if mode not in MODES:
            raise ValueError(f"unknown enforcement mode {mode!r}")
        if self.module_modes.get(module_name) != mode:
            self.module_modes[module_name] = mode
            self._enforce_epoch += 1
            self.kernel.dmesg(
                f"{MODULE_NAME}: mode override {module_name} -> {mode}"
            )

    def mode_for(self, module_name: str) -> str:
        """The effective enforcement mode for a module."""
        if self.module_modes:
            return self.module_modes.get(module_name, self.mode)
        return self.mode

    def bump_guard_epoch(self) -> None:
        """Invalidate every per-CPU guard-decision cache.  The control
        plane calls this at stage/promote/rollback transitions: the
        master table's epoch does not move when the *composed* policy a
        CPU reads changes generation, so the enforcement epoch (already
        part of every cache's validity token) carries the bump."""
        self._enforce_epoch += 1

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "CaratPolicyModule":
        if self._installed:
            raise RuntimeError("policy module already installed")
        self.kernel.symbols.export_native(
            abi.GUARD_SYMBOL, self._guard, owner=MODULE_NAME, private=True
        )
        self.kernel.symbols.export_native(
            "carat_intrinsic_guard",
            self._intrinsic_guard,
            owner=MODULE_NAME,
            private=True,
        )
        self.kernel.symbols.export_native(
            "carat_call_guard",
            self._call_guard,
            owner=MODULE_NAME,
            private=True,
        )
        self.kernel.devices.register(DEVICE_PATH, self)
        self.kernel.carat_policy = self
        self.kernel.dmesg(
            f"{MODULE_NAME}: loaded (index={self.index.name}, "
            f"mode={self.mode})"
        )
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Swap-out path (§3.2: guard implementations are swappable)."""
        if not self._installed:
            return
        self.kernel.retire_symbols(MODULE_NAME)
        self.kernel.devices.unregister(DEVICE_PATH)
        if self.kernel.carat_policy is self:
            self.kernel.carat_policy = None
        self.kernel.dmesg(f"{MODULE_NAME}: unloaded")
        self._installed = False

    # -- the guard (hot path) -------------------------------------------------

    def _bind_cache(self, index, cpu: int) -> Optional[_GuardCache]:
        """Resolve ``cpu``'s decision cache for ``index`` (``None`` if
        the index is impure) and memoize the binding for the next guard."""
        if getattr(index, "pure_check", False):
            caches = self._guard_caches[cpu]
            cache = caches.get(id(index))
            if cache is None or cache.index is not index:
                cache = _GuardCache(index, self._enforce_epoch)
                caches[id(index)] = cache
        else:
            cache = None
        self._fast_index[cpu] = index
        self._fast_cache[cpu] = cache
        return cache

    def _publish_replicas(self) -> None:
        """Write-side RCU discipline for region-table mutations: build a
        fresh immutable snapshot, publish it to every CPU, and reclaim
        the superseded replicas only after a full grace period (no
        reader can still hold them).  No-op for non-table indexes."""
        if self.controlplane is not None:
            # The control plane owns the replica surface: a master
            # mutation is a system-namespace change that recomposes and
            # publishes a fresh generation everywhere (preempting any
            # staged canary), keeping legacy ioctls immediately visible.
            self.controlplane.on_master_mutated()
            return
        index = self.index
        if not isinstance(index, RegionTable):
            return
        retired = [slot for slot in self._replicas if slot is not None]
        for cpu in self.kernel.smp.cpus():
            self._replicas[cpu] = (index, index.snapshot())
        self.replica_publishes += 1
        rcu = self.kernel.rcu
        if retired:
            rcu.call_rcu(retired.clear)
        rcu.synchronize()

    def _replica_check(self, index, cpu: int, addr: int, size: int,
                       flags: int):
        """Check against ``cpu``'s RCU replica when one applies.

        Only the global region table is replicated; per-module tables
        and non-table indexes go straight to the master.  A replica
        whose ``(master, epoch, default_allow)`` token mismatches the
        live master (someone mutated it without the ioctl write path)
        is rebuilt CPU-locally first.  Replica scans are byte-identical
        to master scans, so every simulated counter is unchanged."""
        if index is not self.index or not isinstance(index, RegionTable):
            return index.check(addr, size, flags)
        rcu = self.kernel.rcu
        cp = self.controlplane
        if cp is not None:
            # Composed multi-tenant policy: read this CPU's
            # generation-stamped slot (canary CPUs see the staged
            # generation; torn/partial slots are repaired before any
            # decision is served).
            rcu.read_lock(cpu)
            try:
                return cp.replica_for(cpu).check(addr, size, flags)
            finally:
                rcu.read_unlock(cpu)
        rcu.read_lock(cpu)
        try:
            slot = self._replicas[cpu]
            if (slot is None or slot[0] is not index
                    or slot[1].epoch != index.epoch
                    or slot[1].default_allow != index.default_allow):
                slot = (index, index.snapshot())
                self._replicas[cpu] = slot
                self.replica_refreshes += 1
            return slot[1].check(addr, size, flags)
        finally:
            rcu.read_unlock(cpu)

    def _guard(self, ctx, addr: int, size: int, flags: int,
               module_name: str = "?") -> int:
        """``carat_guard(addr, size, flags)``; returns entries scanned."""
        index = (
            self.module_indexes.get(module_name, self.index)
            if self.module_indexes else self.index
        )
        cpu = self.kernel.smp.current
        stats = self._cpu_stats[cpu]
        if index is self._fast_index[cpu]:
            cache = self._fast_cache[cpu]
        else:
            cache = self._bind_cache(index, cpu)
        if cache is not None:
            if (cache.epoch != index.epoch
                    or cache.default_allow != index.default_allow
                    or cache.enforce_epoch != self._enforce_epoch):
                cache.epoch = index.epoch
                cache.default_allow = index.default_allow
                cache.enforce_epoch = self._enforce_epoch
                cache.decisions.clear()
            key = (addr, size, flags)
            decision = cache.decisions.get(key)
            if decision is not None:
                stats.guard_cache_hits += 1
                allowed, scanned = decision
            else:
                stats.guard_cache_misses += 1
                allowed, scanned = self._replica_check(
                    index, cpu, addr, size, flags
                )
                stats.structure_checks += 1
                stats.comparisons += scanned
                if len(cache.decisions) >= cache.MAX_ENTRIES:
                    cache.decisions.clear()
                cache.decisions[key] = (allowed, scanned)
        else:
            allowed, scanned = self._replica_check(
                index, cpu, addr, size, flags
            )
            stats.structure_checks += 1
            stats.comparisons += scanned
        stats.checks += 1
        stats.entries_scanned += scanned
        mshard = self._cpu_module_stats[cpu]
        mstats = mshard.get(module_name)
        if mstats is None:
            mstats = mshard[module_name] = [0, 0]
        mstats[0] += 1
        if allowed:
            stats.allowed += 1
            return scanned
        stats.denied += 1
        mstats[1] += 1
        self._record_violation(
            module_name, kind="memory", addr=addr, size=size, flags=flags
        )
        self.kernel.dmesg(
            f"{MODULE_NAME}: DENY module={module_name} "
            f"{abi.flags_name(flags)} {addr:#018x} size={size}"
        )
        mode = self.mode_for(module_name)
        if mode == MODE_PANIC:
            violation = GuardViolation(addr, size, flags, f"module {module_name}")
            self.kernel.panicked = violation.reason
            self.kernel.dmesg(f"Kernel panic - not syncing: {violation.reason}")
            raise violation
        if mode != MODE_AUDIT:
            raise ViolationFault(addr, size, flags, module_name, mode)
        return scanned

    def _intrinsic_guard(self, ctx, name_ptr: int) -> int:
        """Guard for privileged intrinsics (paper §5 extension)."""
        name = self.kernel.address_space.read_cstring(int(name_ptr)).decode()
        module_name = (
            ctx.current_module.name
            if ctx is not None and ctx.current_module is not None
            else "?"
        )
        stats = self._cpu_stats[self.kernel.smp.current]
        stats.intrinsic_checks += 1
        if name in self.allowed_intrinsics:
            return 1
        stats.intrinsic_denied += 1
        self._record_violation(
            module_name, kind="intrinsic", flags=abi.FLAG_INTRINSIC,
            detail=name,
        )
        self.kernel.dmesg(
            f"{MODULE_NAME}: DENY-INTRINSIC module={module_name} {name}"
        )
        mode = self.mode_for(module_name)
        if mode == MODE_PANIC:
            violation = GuardViolation(
                0, 0, abi.FLAG_INTRINSIC, f"intrinsic {name} by {module_name}"
            )
            self.kernel.panicked = violation.reason
            self.kernel.dmesg(f"Kernel panic - not syncing: {violation.reason}")
            raise violation
        if mode != MODE_AUDIT:
            raise ViolationFault(
                0, 0, abi.FLAG_INTRINSIC, module_name, mode,
                detail=f"forbidden intrinsic {name} by module {module_name}",
            )
        return 1

    def _call_guard(self, ctx, name_ptr: int) -> int:
        """Guard for module->kernel calls (paper §5 control-flow extension)."""
        if self.allowed_calls is None:
            return 1  # allow-all mode
        name = self.kernel.address_space.read_cstring(int(name_ptr)).decode()
        if name in self.allowed_calls:
            return 1
        module_name = (
            ctx.current_module.name
            if ctx is not None and ctx.current_module is not None
            else "?"
        )
        self._record_violation(
            module_name, kind="call", flags=abi.FLAG_EXEC, detail=name
        )
        self.kernel.dmesg(
            f"{MODULE_NAME}: DENY-CALL module={module_name} -> {name}"
        )
        mode = self.mode_for(module_name)
        if mode == MODE_PANIC:
            violation = GuardViolation(
                0, 0, abi.FLAG_EXEC, f"call to {name} by {module_name}"
            )
            self.kernel.panicked = violation.reason
            self.kernel.dmesg(f"Kernel panic - not syncing: {violation.reason}")
            raise violation
        if mode != MODE_AUDIT:
            raise ViolationFault(
                0, 0, abi.FLAG_EXEC, module_name, mode,
                detail=f"forbidden call to {name} by module {module_name}",
            )
        return 1

    # -- ioctl interface ------------------------------------------------------

    def ioctl(self, cmd: int, arg: bytes, *, uid: int) -> bytes:
        if uid != 0:
            raise IoctlError(EPERM, "policy changes require root")
        if cmd == CMD_ADD_REGION:
            base, length, prot = self._unpack(_REGION_FMT, arg)
            try:
                idx = self.index.add(Region(base, length, prot))
            except PolicyTableFull as e:
                raise IoctlError(ENOSPC, str(e)) from e
            except ValueError as e:
                raise IoctlError(EINVAL, str(e)) from e
            self.kernel.dmesg(
                f"{MODULE_NAME}: region {idx} added "
                f"{Region(base, length, prot).describe()}"
            )
            self._publish_replicas()
            self.kernel.on_policy_mutated()
            return struct.pack("<I", idx)
        if cmd == CMD_DEL_REGION:
            base, length = self._unpack("<QQ", arg)
            ok = self.index.remove(base, length)
            if ok:
                self._publish_replicas()
                self.kernel.on_policy_mutated()
            return struct.pack("<I", int(ok))
        if cmd == CMD_CLEAR:
            self.index.clear()
            self._publish_replicas()
            self.kernel.on_policy_mutated()
            return b""
        if cmd == CMD_SET_DEFAULT:
            (flag,) = self._unpack("<I", arg)
            self.index.default_allow = bool(flag)
            self._publish_replicas()
            self.kernel.on_policy_mutated()
            return b""
        if cmd == CMD_GET_STATS:
            s = self.stats
            return struct.pack(
                _STATS_FMT, s.checks, s.allowed, s.denied,
                s.entries_scanned, len(self.index),
            )
        if cmd == CMD_GET_REGION:
            (idx,) = self._unpack("<I", arg)
            regions = self.index.regions()
            if idx >= len(regions):
                raise IoctlError(EINVAL, f"no region {idx}")
            r = regions[idx]
            return struct.pack(_REGION_FMT, r.base, r.length, r.prot)
        if cmd == CMD_COUNT:
            return struct.pack("<I", len(self.index))
        if cmd == CMD_ALLOW_INTRINSIC:
            self.allowed_intrinsics.add(self._decode_name(arg))
            return b""
        if cmd == CMD_DENY_INTRINSIC:
            self.allowed_intrinsics.discard(self._decode_name(arg))
            return b""
        if cmd == CMD_CALL_POLICY:
            (flag,) = self._unpack("<I", arg)
            self.allowed_calls = set() if flag else None
            return b""
        if cmd == CMD_ALLOW_CALL:
            if self.allowed_calls is None:
                self.allowed_calls = set()
            self.allowed_calls.add(self._decode_name(arg))
            return b""
        if cmd == CMD_DENY_CALL:
            if self.allowed_calls is not None:
                self.allowed_calls.discard(self._decode_name(arg))
            return b""
        if cmd == CMD_ADD_REGION_FOR:
            want = _NAME_LEN + struct.calcsize(_REGION_FMT)
            if len(arg) != want:
                raise IoctlError(EINVAL, f"expected {want}-byte payload")
            name = self._decode_name(arg[:_NAME_LEN])
            base, length, prot = struct.unpack(_REGION_FMT, arg[_NAME_LEN:])
            index = self.module_indexes.get(name)
            if index is None:
                index = RegionTable(default_allow=False)
                self.module_indexes[name] = index
            existing = index.overlapping(base, length)
            if existing is not None:
                # Namespace tables are single-writer allowlists: an
                # overlapping add is an operator error, not a priority
                # trick — reject it instead of leaning on first-match.
                raise IoctlError(
                    EEXIST,
                    f"region [{base:#x}, +{length:#x}) overlaps "
                    f"{existing.describe()} in {name}'s policy",
                )
            try:
                idx = index.add(Region(base, length, prot))
            except PolicyTableFull as e:
                raise IoctlError(ENOSPC, str(e)) from e
            except ValueError as e:
                raise IoctlError(EINVAL, str(e)) from e
            self.kernel.on_policy_mutated()
            return struct.pack("<I", idx)
        if cmd == CMD_CLEAR_FOR:
            self.module_indexes.pop(self._decode_name(arg), None)
            self.kernel.on_policy_mutated()
            return b""
        if cmd == CMD_SET_MODE:
            (code,) = self._unpack("<I", arg)
            mode = MODE_CODES.get(code)
            if mode is None:
                raise IoctlError(EINVAL, f"unknown mode code {code}")
            self.set_mode(mode)
            return b""
        if cmd == CMD_SET_MODE_FOR:
            want = _NAME_LEN + 4
            if len(arg) != want:
                raise IoctlError(EINVAL, f"expected {want}-byte payload")
            name = self._decode_name(arg[:_NAME_LEN])
            (code,) = struct.unpack("<I", arg[_NAME_LEN:])
            if code == _CLEAR_MODE_CODE:
                self.set_module_mode(name, None)
                return b""
            mode = MODE_CODES.get(code)
            if mode is None:
                raise IoctlError(EINVAL, f"unknown mode code {code}")
            self.set_module_mode(name, mode)
            return b""
        if cmd == CMD_GET_MODE:
            if len(arg) == 0:
                return struct.pack("<I", MODE_WIRE[self.mode])
            if len(arg) != _NAME_LEN:
                raise IoctlError(
                    EINVAL, f"expected empty or {_NAME_LEN}-byte payload"
                )
            name = self._decode_name(arg)
            return struct.pack("<I", MODE_WIRE[self.mode_for(name)])
        if cmd == CMD_GET_VIOLATIONS:
            name = self._decode_fixed_name(arg)
            return struct.pack("<Q", self.violations.get(name, 0))
        if cmd == CMD_UNQUARANTINE:
            name = self._decode_fixed_name(arg)
            return struct.pack("<I", int(self.kernel.unquarantine(name)))
        if cmd == CMD_TRACE_ENABLE:
            self.kernel.trace.enable()
            return b""
        if cmd == CMD_TRACE_DISABLE:
            self.kernel.trace.disable()
            return b""
        if cmd == CMD_TRACE_SNAPSHOT:
            ring = self.kernel.trace.ring_stats()
            return struct.pack(
                _TRACE_STAT_FMT, ring["stored"], ring["lost"], ring["total"]
            )
        if cmd == CMD_TRACE_RESET:
            self.kernel.trace.reset()
            return b""
        if cmd in (CMD_TENANT_CREATE, CMD_TENANT_DELETE, CMD_BATCH_MUTATE,
                   CMD_TENANT_STATS, CMD_CP_STATUS, CMD_CP_TICK):
            return self._cp_ioctl(cmd, arg)
        raise IoctlError(ENOTTY, f"unknown ioctl {cmd:#x}")

    def _cp_ioctl(self, cmd: int, arg: bytes) -> bytes:
        """Control-plane command dispatch (root already checked)."""
        from .controlplane import TenantQuota
        cp = self.controlplane
        if cp is None:
            raise IoctlError(ENOTTY, "no control plane attached")
        if cmd == CMD_TENANT_CREATE:
            want = _NAME_LEN + struct.calcsize(_TENANT_QUOTA_FMT)
            if len(arg) != want:
                raise IoctlError(EINVAL, f"expected {want}-byte payload")
            name = self._decode_name(arg[:_NAME_LEN])
            max_regions, max_rate, budget = struct.unpack(
                _TENANT_QUOTA_FMT, arg[_NAME_LEN:]
            )
            if min(max_regions, max_rate) < 1:
                raise IoctlError(EINVAL, "quota fields must be positive")
            cp.create_tenant(name, TenantQuota(
                max_regions=max_regions,
                max_mutations_per_window=max_rate,
                violation_budget=budget,
            ))
            return b""
        if cmd == CMD_TENANT_DELETE:
            cp.delete_tenant(self._decode_fixed_name(arg))
            return b""
        if cmd == CMD_BATCH_MUTATE:
            head = _NAME_LEN + 4
            op_size = struct.calcsize(_BATCH_OP_FMT)
            if len(arg) < head:
                raise IoctlError(EINVAL, "short batch header")
            name = self._decode_name(arg[:_NAME_LEN])
            (count,) = struct.unpack("<I", arg[_NAME_LEN:head])
            if len(arg) != head + count * op_size:
                raise IoctlError(
                    EINVAL,
                    f"batch declares {count} op(s) but payload holds "
                    f"{(len(arg) - head) // op_size}",
                )
            ops = [
                struct.unpack_from(_BATCH_OP_FMT, arg, head + i * op_size)
                for i in range(count)
            ]
            return struct.pack("<Q", cp.submit_batch(name, ops))
        if cmd == CMD_TENANT_STATS:
            t = cp.tenant(self._decode_fixed_name(arg)).stats()
            return struct.pack(
                _TENANT_STATS_FMT, t["generation"], t["regions"],
                t["batches_applied"], t["batches_promoted"],
                t["batches_rejected"], t["rollbacks"], t["quota_denials"],
                t["overlap_rejections"], t["mutations_window"],
            )
        if cmd == CMD_CP_STATUS:
            if arg:
                raise IoctlError(EINVAL, "expected empty payload")
            s = cp.status()
            return struct.pack(
                _CP_STATUS_FMT, s["generation"], s["staged_generation"],
                s["tenants"], s["promotions"], s["rollbacks"],
                s["publishes"], s["publish_retries"], s["replica_repairs"],
            )
        if cmd == CMD_CP_TICK:
            if arg:
                raise IoctlError(EINVAL, "expected empty payload")
            return struct.pack("<I", cp.tick())
        raise IoctlError(ENOTTY, f"unknown ioctl {cmd:#x}")

    @staticmethod
    def _decode_name(arg: bytes) -> str:
        """Copied-in name payloads come from user space: validate them."""
        try:
            return arg.rstrip(b"\x00").decode("utf-8")
        except UnicodeDecodeError as e:
            raise IoctlError(EINVAL, f"bad name payload: {e}") from e

    @classmethod
    def _decode_fixed_name(cls, arg: bytes) -> str:
        """The graceful-enforcement commands take exactly the NUL-padded
        fixed-size name struct — a short or oversized copy is a user-space
        bug, not something to silently accept."""
        if len(arg) != _NAME_LEN:
            raise IoctlError(
                EINVAL, f"expected {_NAME_LEN}-byte name payload, got {len(arg)}"
            )
        return cls._decode_name(arg)

    @staticmethod
    def _unpack(fmt: str, arg: bytes):
        want = struct.calcsize(fmt)
        if len(arg) != want:
            raise IoctlError(EINVAL, f"expected {want}-byte payload, got {len(arg)}")
        return struct.unpack(fmt, arg)


__all__ = [
    "CMD_ADD_REGION",
    "CMD_ALLOW_INTRINSIC",
    "CMD_BATCH_MUTATE",
    "CMD_CLEAR",
    "CMD_CP_STATUS",
    "CMD_CP_TICK",
    "CMD_COUNT",
    "CMD_DEL_REGION",
    "CMD_DENY_INTRINSIC",
    "CMD_GET_MODE",
    "CMD_GET_REGION",
    "CMD_GET_STATS",
    "CMD_GET_VIOLATIONS",
    "CMD_SET_DEFAULT",
    "CMD_SET_MODE",
    "CMD_SET_MODE_FOR",
    "CMD_TENANT_CREATE",
    "CMD_TENANT_DELETE",
    "CMD_TENANT_STATS",
    "CMD_TRACE_DISABLE",
    "CMD_TRACE_ENABLE",
    "CMD_TRACE_RESET",
    "CMD_TRACE_SNAPSHOT",
    "CMD_UNQUARANTINE",
    "CaratPolicyModule",
    "DEVICE_PATH",
    "MODE_AUDIT",
    "MODE_CODES",
    "MODE_EJECT",
    "MODE_ISOLATE",
    "MODE_PANIC",
    "MODES",
    "MODE_WIRE",
    "MODULE_NAME",
    "PolicyStats",
]

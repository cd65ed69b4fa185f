"""The CARAT KOP policy module (paper §3.1).

A native "kernel module" that:

- privately exports the single symbol ``carat_guard`` ("a callback to a
  CARAT CAKE runtime function that is privately exported from the
  kernel", §2),
- owns the policy index: the 64-entry region table by default, or the
  decision-identical interval index (:mod:`repro.policy.interval`),
  and the control plane that publishes it to every CPU
  (:mod:`repro.policy.controlplane`),
- registers ``/dev/carat`` and implements the ioctl protocol the
  ``policy-manager`` application speaks (Figure 1),
- on a forbidden access: logs and panics the kernel (§3.1), optionally
  audit-only for research runs.

It also exports ``carat_intrinsic_guard`` and ``carat_call_guard`` for
the §5 privileged-intrinsic and kernel-call extensions.  All three guards
end a denial in one deny tail (:meth:`CaratPolicyModule._deny`), whose
panic goes through :meth:`repro.kernel.kernel.Kernel.panic`.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from types import MappingProxyType
from typing import Optional

from .. import abi
from ..kernel.chardev import EEXIST, EINVAL, ENOSPC, ENOTTY, EPERM, IoctlError
from ..kernel.kernel import Kernel
from ..kernel.panic import ViolationFault
from ..kernel.smp import PerCpu
from ..vm.interp import GuardViolation
from .controlplane import PolicyControlPlane, TenantQuota
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
# repro.policy.controlplane).
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

#: The §5 name guards, by kind: the flag a denial carries, its DENY
#: dmesg line after the module prefix, and what the module attempted.
_NAME_GUARDS = {
    "intrinsic": (abi.FLAG_INTRINSIC, "DENY-INTRINSIC module={module} {name}",
                  "intrinsic {name}"),
    "call": (abi.FLAG_EXEC, "DENY-CALL module={module} -> {name}",
             "call to {name}"),
}


#: The ledger field that counts each guard kind's denials.
_DENIED = {"memory": "denied", "intrinsic": "intrinsic_denied",
           "call": "call_denied"}


class PolicyStats:
    """One module's guard traffic on one CPU (a row of the policy's
    ledger), or a sum of rows.  A row stores only independent facts;
    ``checks``, ``allowed`` and ``structure_checks`` (one index walk per
    decision-cache miss) are derived on read."""

    __slots__ = ("guard_cache_hits", "guard_cache_misses", "entries_scanned",
                 "comparisons", "intrinsic_checks", "denied",
                 "intrinsic_denied", "call_denied")

    #: The reported counters, in ``/proc`` and ``as_dict`` order.
    FIELDS = ("checks", "allowed", "denied", "entries_scanned",
              "comparisons", "structure_checks", "intrinsic_checks",
              "intrinsic_denied", "guard_cache_hits", "guard_cache_misses")

    def __init__(self) -> None:
        for field in self.__slots__:
            setattr(self, field, 0)

    @property
    def checks(self) -> int:
        return self.guard_cache_hits + self.guard_cache_misses

    @property
    def allowed(self) -> int:
        return self.checks - self.denied

    @property
    def structure_checks(self) -> int:
        return self.guard_cache_misses

    @property
    def violations(self) -> int:
        return self.denied + self.intrinsic_denied + self.call_denied

    @classmethod
    def total(cls, rows) -> "PolicyStats":
        total = cls()
        for row in rows:
            for field in cls.__slots__:
                setattr(total, field, getattr(total, field) + getattr(row, field))
        return total

    def as_dict(self) -> dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}


class _GuardCache:
    """One module's guard binding on one CPU: the index its guards read,
    that index's decision dict on this CPU, and the module's ledger row.

    A decision dict maps ``(addr, size, flags)`` to the full ``(allowed,
    scanned)`` decision, so stats and the machine model's per-entry guard
    cost are identical with and without it.  Modules reading the same
    index on the same CPU share it.  No reader checks that it is current:
    every write a decision depends on empties the affected dicts in place
    before the next guard (:meth:`CaratPolicyModule.invalidate_decisions`),
    and only a change of the module's table unbinds it.

    **Serving a hit outside** :meth:`CaratPolicyModule._guard`.  The
    compiled engine's timed guard closure answers a guard itself when the
    module's ``carat_guard`` import still holds the bound ``_guard`` the
    site was translated against (a §3.2 swap, the miner's audit tap or a
    wrapper assigned to ``sym.native`` are the one write that does not
    announce itself), the module is bound on the current CPU, and the
    key's cached decision is *allowed*.  It then makes exactly the
    updates ``_guard``'s hit branch and the engine's guard accounting
    make: ``guard_cache_hits`` and ``entries_scanned`` on the row,
    ``guard_checks`` on the engine, ``cycles += base + entry * scanned``
    on the timing model.  Every other case calls the native, so
    ``_guard`` stays the one place that decides.
    """

    __slots__ = ("index", "decisions", "row")

    #: Safety valve for scan-everything workloads; steady-state driver
    #: loops touch a few dozen distinct (addr, size, flags) keys.
    MAX_ENTRIES = 1 << 16

    def __init__(self, index, decisions: dict, row: PolicyStats):
        self.index = index
        self.decisions = decisions
        self.row = row


class CaratPolicyModule:
    """The policy module; one per kernel."""

    def __init__(self, kernel: Kernel, index: Optional[RegionTable] = None,
                 mode: str = MODE_PANIC):
        self.kernel = kernel
        if index is None:
            index = RegionTable()
        elif not isinstance(index, RegionTable):
            raise TypeError(
                f"policy index must be a RegionTable, not {type(index).__name__}"
            )
        self.index = index
        if mode not in MODES:
            raise ValueError(f"unknown enforcement mode {mode!r}")
        #: Global enforcement mode; per-module overrides win over it.
        self.mode = mode
        self.module_modes: dict[str, str] = {}
        ncpus = kernel.smp.ncpus
        #: The guard ledger (DEFINE_PER_CPU style): one
        #: :class:`PolicyStats` row per module on each simulated CPU,
        #: bumped only by that CPU.  Totals, per-CPU and per-driver rows
        #: and :attr:`violations` are sums taken on read.
        self._ledger: PerCpu = PerCpu(ncpus, lambda cpu: {})
        self.allowed_intrinsics: set[str] = set()
        #: Kernel symbols a module may call (paper §5 control-flow
        #: extension).  ``None`` = allow-all (the default, like stock
        #: CARAT KOP); a set = strict allowlist.
        self.allowed_calls: Optional[set[str]] = None
        #: Per-module region tables (paper §5: "a different policy table
        #: could be consulted" per module), written only through
        #: :meth:`bind_module_table` and :meth:`drop_module_table`.
        self._module_tables: dict[str, RegionTable] = {}
        #: Guard decisions per CPU and per index: ``{index: {(addr, size,
        #: flags): (allowed, scanned)}}``.  Per-CPU so the hot path never
        #: shares a dict between CPUs.
        self._decisions: PerCpu = PerCpu(ncpus, lambda cpu: {})
        #: Per module name, one :class:`_GuardCache` slot per CPU (None
        #: until the module's first guard there).  The lists are never
        #: replaced, so a compiled guard site captures its module's list.
        self._bindings: defaultdict[str, list] = defaultdict(
            lambda: [None] * ncpus)
        index.on_change = self.policy_written
        #: One bound ``carat_guard`` native for the module's life: install
        #: and the miner's restore both export this object, so a compiled
        #: guard site recognises it by identity after a swap.
        self._guard = self._guard
        self._installed = False
        self._tp_deny = kernel.trace.points["guard:deny"]
        #: The RCU-published replica surface for the global table: the
        #: guard reads its CPU's generation-stamped slot lock-free, and
        #: every mutation publishes through it behind a grace period.
        self.controlplane = PolicyControlPlane(kernel, self)

    @property
    def replica_publishes(self) -> int:
        """RCU publishes of the global table (the control plane's)."""
        return self.controlplane.publishes

    @property
    def stats(self) -> PolicyStats:
        """The ledger's totals over every CPU and module."""
        return PolicyStats.total(
            row for rows in self._ledger for row in rows.values())

    def stats_per_cpu(self) -> list[dict[str, int]]:
        """Per-CPU totals (the /proc/carat per-CPU view)."""
        return [PolicyStats.total(rows.values()).as_dict()
                for rows in self._ledger]

    def _module_totals(self) -> list[tuple[str, PolicyStats]]:
        """Each module's rows summed over CPUs, by module name."""
        names = sorted({name for rows in self._ledger for name in rows})
        return [(name, PolicyStats.total(
            rows[name] for rows in self._ledger if name in rows))
            for name in names]

    def driver_stats(self) -> dict[str, dict[str, int]]:
        """Per-module memory-guard traffic: which driver's loads/stores
        the guards are actually checking (and denying)."""
        return {name: {"checks": row.checks, "denied": row.denied}
                for name, row in self._module_totals() if row.checks}

    @property
    def violations(self) -> dict[str, int]:
        """Denials per module, every guard kind and mode (audit runs use
        this for the would-have-denied tally)."""
        return {name: row.violations
                for name, row in self._module_totals() if row.violations}

    def _row(self, module_name: str) -> PolicyStats:
        """The current CPU's ledger row for ``module_name``."""
        rows = self._ledger[self.kernel.smp.current]
        row = rows.get(module_name)
        if row is None:
            row = rows[module_name] = PolicyStats()
        return row

    def _record_violation(self, module_name: str, *, kind: str,
                          addr: int = 0, size: int = 0, flags: int = 0,
                          detail: str = "") -> None:
        """The one place a denial is counted: every guard kind funnels its
        denial (and the guard:deny tracepoint) through here."""
        row = self._row(module_name)
        setattr(row, _DENIED[kind], getattr(row, _DENIED[kind]) + 1)
        tp = self._tp_deny
        if tp.enabled:
            tp.emit(module=module_name, kind=kind, addr=addr, size=size,
                    flags=flags, detail=detail)

    # -- enforcement modes ----------------------------------------------------

    def _set_global_mode(self, mode: str) -> None:
        """Switch the global mode without logging (the policy miner's
        temporary audit window leaves dmesg untouched)."""
        if mode not in MODES:
            raise ValueError(f"unknown enforcement mode {mode!r}")
        if mode != self.mode:
            self.mode = mode
            self.invalidate_decisions()

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
                self.invalidate_decisions()
                self.kernel.dmesg(
                    f"{MODULE_NAME}: mode override cleared for {module_name}"
                )
            return
        if mode not in MODES:
            raise ValueError(f"unknown enforcement mode {mode!r}")
        if self.module_modes.get(module_name) != mode:
            self.module_modes[module_name] = mode
            self.invalidate_decisions()
            self.kernel.dmesg(
                f"{MODULE_NAME}: mode override {module_name} -> {mode}"
            )

    def mode_for(self, module_name: str) -> str:
        """The effective enforcement mode for a module."""
        if self.module_modes:
            return self.module_modes.get(module_name, self.mode)
        return self.mode

    # -- guard decisions: the write side ---------------------------------------

    def invalidate_decisions(self, table: Optional[RegionTable] = None) -> None:
        """Empty, in place, every CPU's cached decisions for ``table``
        (for every table when ``None``): the one write-side rule of the
        decision cache, whose readers check nothing.  Every write a
        cached decision depends on calls it before the next guard:
        each policy write through :meth:`policy_written`, a mode
        change, and the control plane's new-generation republish.  The
        dicts are emptied, never replaced, so bindings stay current."""
        for tables in self._decisions:
            for index, decisions in tables.items():
                if table is None or index is table:
                    decisions.clear()

    def policy_written(self, table: Optional[RegionTable] = None) -> None:
        """The one policy write hook, run as each write happens.  It is
        the ``on_change`` of the global and every per-module table (a
        region change or a ``default_allow`` write, by ioctl or direct
        call); bind, drop, :meth:`uninstall` and the control plane's
        stage, promote and rollback call it too, with ``None`` when the
        composed policy changed without a table write.  In order: empty
        ``table``'s cached decisions (every table's for ``None``),
        republish the replicas if ``table`` is the global one, and
        demote every ``-O3`` module."""
        self.invalidate_decisions(table)
        if table is self.index:
            self.controlplane.on_master_mutated()
        self.kernel.on_policy_mutated()

    @property
    def module_indexes(self) -> MappingProxyType:
        """The per-module tables by module name (read-only view)."""
        return MappingProxyType(self._module_tables)

    def bind_module_table(self, module_name: str, table: RegionTable) -> None:
        """Check ``module_name``'s guards against ``table`` from now on."""
        self._module_tables[module_name] = table
        table.on_change = self.policy_written
        self._rebind(module_name)
        self.policy_written(table)

    def drop_module_table(self, module_name: str) -> None:
        """Send ``module_name``'s guards back to the global index."""
        table = self._module_tables.pop(module_name, None)
        if table is not None:
            self._rebind(module_name)
            self.policy_written(table)

    def _rebind(self, module_name: str) -> None:
        """After ``module_name``'s table changed: unbind it on every CPU,
        and free the decisions of tables no guard reads any more."""
        live = {self.index, *self._module_tables.values()}
        for tables in self._decisions:
            for index in [i for i in tables if i not in live]:
                del tables[index]
        self._bindings[module_name][:] = [None] * self.kernel.smp.ncpus

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "CaratPolicyModule":
        if self._installed:
            raise RuntimeError("policy module already installed")
        self._export_guards(self._guard)
        self.kernel.devices.register(DEVICE_PATH, self)
        self.kernel.carat_policy = self
        self.kernel.dmesg(
            f"{MODULE_NAME}: loaded (index={self.index.name}, "
            f"mode={self.mode})"
        )
        self._installed = True
        return self

    def _export_guards(self, memory_guard) -> None:
        """Privately export the three guard natives, ``memory_guard`` as
        ``carat_guard`` (the policy miner swaps in its audit tap)."""
        natives = (memory_guard, self._intrinsic_guard, self._call_guard)
        for symbol, native in zip(abi.GUARD_SYMBOLS, natives):
            self.kernel.symbols.export_native(
                symbol, native, owner=MODULE_NAME, private=True
            )

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
        self.policy_written()

    # -- the guard (hot path) -------------------------------------------------

    def _bind(self, module_name: str, cpu: int) -> _GuardCache:
        """Bind ``module_name`` on ``cpu`` (the current CPU) to its index's
        decision dict there and to its ledger row."""
        index = self._module_tables.get(module_name, self.index)
        tables = self._decisions[cpu]
        decisions = tables.get(index)
        if decisions is None:
            decisions = tables[index] = {}
        cache = _GuardCache(index, decisions, self._row(module_name))
        self._bindings[module_name][cpu] = cache
        return cache

    def _replica_check(self, index, cpu: int, addr: int, size: int,
                       flags: int):
        """Check against ``cpu``'s RCU replica when one applies.

        Only the global region table is replicated; per-module tables
        go straight to the master.  The global table is read through
        the control plane's composed snapshot for this CPU (canary CPUs
        see a staged generation; torn, partial or stale slots are
        repaired before any decision is served).  Replica scans are
        byte-identical to master scans, so every simulated counter is
        unchanged."""
        if index is not self.index:
            return index.check(addr, size, flags)
        rcu = self.kernel.rcu
        rcu.read_lock(cpu)
        try:
            return self.controlplane.replica_for(cpu).check(addr, size, flags)
        finally:
            rcu.read_unlock(cpu)

    def _guard(self, ctx, addr: int, size: int, flags: int,
               module_name: str = "?") -> int:
        """``carat_guard(addr, size, flags)``; returns entries scanned.

        The compiled engine serves some allowed cache hits without this
        call; the rule is on :class:`_GuardCache`, and a change to the
        hit branch below must keep it true."""
        cpu = self.kernel.smp.current
        cache = self._bindings[module_name][cpu]
        if cache is None:
            cache = self._bind(module_name, cpu)
        row = cache.row
        decisions = cache.decisions
        key = (addr, size, flags)
        decision = decisions.get(key)
        if decision is not None:
            row.guard_cache_hits += 1
            allowed, scanned = decision
        else:
            row.guard_cache_misses += 1
            allowed, scanned = self._replica_check(
                cache.index, cpu, addr, size, flags
            )
            row.comparisons += scanned
            if len(decisions) >= cache.MAX_ENTRIES:
                decisions.clear()
            decisions[key] = (allowed, scanned)
        row.entries_scanned += scanned
        if allowed:
            return scanned
        self._deny(
            module_name, "memory",
            f"DENY module={module_name} "
            f"{abi.flags_name(flags)} {addr:#018x} size={size}",
            addr=addr, size=size, flags=flags,
        )
        return scanned

    def _intrinsic_guard(self, ctx, name_ptr: int) -> int:
        """Guard for privileged intrinsics (paper §5 extension)."""
        return self._name_guard(ctx, name_ptr, "intrinsic",
                                self.allowed_intrinsics)

    def _call_guard(self, ctx, name_ptr: int) -> int:
        """Guard for module->kernel calls (paper §5 control-flow extension)."""
        if self.allowed_calls is None:
            return 1  # allow-all mode
        return self._name_guard(ctx, name_ptr, "call", self.allowed_calls)

    def _name_guard(self, ctx, name_ptr: int, kind: str,
                    allowed: set[str]) -> int:
        """The body both §5 guards share: read the guarded name, resolve
        the calling module, allow a name in ``allowed``, deny the rest.
        Only intrinsic guards count their checks."""
        name = self.kernel.address_space.read_cstring(int(name_ptr)).decode()
        module_name = (
            ctx.current_module.name
            if ctx is not None and ctx.current_module is not None
            else "?"
        )
        if kind == "intrinsic":
            self._row(module_name).intrinsic_checks += 1
        if name in allowed:
            return 1
        flags, line, what = _NAME_GUARDS[kind]
        self._deny(
            module_name, kind,
            line.format(module=module_name, name=name),
            flags=flags, name=name, what=what.format(name=name),
        )
        return 1

    def _deny(self, module_name: str, kind: str, line: str, *,
              addr: int = 0, size: int = 0, flags: int = 0,
              name: str = "", what: str = "") -> None:
        """The deny tail of every guard flavour: count and trace the
        violation, log ``line``, then enforce the module's mode.  Returns
        only in audit mode.  ``what`` names a §5 name-guard denial (the
        memory guard's reason and fault message describe the access)."""
        self._record_violation(
            module_name, kind=kind, addr=addr, size=size, flags=flags,
            detail=name,
        )
        self.kernel.dmesg(f"{MODULE_NAME}: {line}")
        mode = self.mode_for(module_name)
        if mode == MODE_PANIC:
            self.kernel.panic(GuardViolation(
                addr, size, flags,
                f"{what} by {module_name}" if what else f"module {module_name}",
            ))
        if mode != MODE_AUDIT:
            raise ViolationFault(
                addr, size, flags, module_name, mode,
                detail=(f"forbidden {what} by module {module_name}"
                        if what else ""),
            )

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
            return struct.pack("<I", idx)
        if cmd == CMD_DEL_REGION:
            base, length = self._unpack("<QQ", arg)
            return struct.pack("<I", int(self.index.remove(base, length)))
        if cmd == CMD_CLEAR:
            self.index.clear()
            return b""
        if cmd == CMD_SET_DEFAULT:
            (flag,) = self._unpack("<I", arg)
            self.index.default_allow = bool(flag)
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
            index = self._module_tables.get(name)
            if index is None:
                index = RegionTable(default_allow=False)
                self.bind_module_table(name, index)
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
            return struct.pack("<I", idx)
        if cmd == CMD_CLEAR_FOR:
            self.drop_module_table(self._decode_name(arg))
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
        cp = self.controlplane
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

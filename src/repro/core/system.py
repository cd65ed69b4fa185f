"""CaratKopSystem: one-call assembly of the whole testbed.

Boots one kernel on a chosen machine model, installs the one policy
module every protected driver links against, and for each chosen device
stack in order compiles its driver (baseline or protected), inserts it,
and probes the stack's glue on top — for the e1000e stack a NIC against
a packet sink plus a raw socket and blaster, for the vblk stack a block
disk plus a request queue and blkblast — the complete Figure 1 picture
plus the §4 testbed, ready for experiments.  What differs between the
stacks lives in :mod:`repro.core.stacks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..kernel import Kernel
from ..kernel.module_loader import LoadedModule
from ..policy import (
    CaratPolicyModule,
    IntervalRegionTable,
    PolicyManager,
    RegionTable,
)
from ..signing import SigningKey
from ..vm.machine import MachineModel, get_machine
from .pipeline import CompileOptions, compile_module
from .stacks import STACKS

#: ``SystemConfig.policy_index`` names and the tables they build.
POLICY_INDEXES = {"linear": RegionTable, "interval": IntervalRegionTable}


@dataclass
class SystemConfig:
    """Everything the experiments vary."""

    #: "r415", "r350", a MachineModel, or None for untimed functional runs.
    machine: Union[str, MachineModel, None] = "r350"
    #: Which guarded device stack to assemble: "e1000e" (NIC + pktblast,
    #: the paper's testbed) or "vblk" (virtio-style block + blkblast),
    #: or a tuple of names to assemble several on the one kernel.
    driver: Union[str, tuple[str, ...]] = "e1000e"
    #: Build the driver with the CARAT KOP transform ("carat") or not
    #: ("baseline") — the two curves in every figure.
    protect: bool = True
    #: Guard optimization level: 0 faithful, 1 eliminate+hoist, 2 adds
    #: range coalescing, 3 adds load-time static verification (prove
    #: guards in-policy at compile time, elide them at insmod).
    opt_level: int = 0
    #: What insmod does with a stale/invalid verification certificate:
    #: "strict" rejects the module, "demote" (default) loads it with
    #: full dynamic guarding, "off" ignores certificates entirely.
    verify_policy: str = "demote"
    #: Policy index: "linear" (the paper's table) or "interval" (the
    #: decision-identical overlap-aware index).  None means "linear".
    policy_index: Optional[str] = None
    #: Number of regions for the standard policy (Figure 5 varies this).
    regions: int = 2
    #: Enforcement mode: "audit", "panic" (the paper behaviour), "eject",
    #: or "isolate".
    enforce_mode: str = "panic"
    #: Require signatures + protection at insmod.
    strict_kernel: bool = False
    #: Execution engine: "compiled" (translate-once closures, default) or
    #: "interp" (the reference tree-walking interpreter).
    engine: str = "compiled"
    #: Simulated CPUs (cooperative round-robin model).  1 is bit-exact
    #: with the historic single-CPU behaviour; N shards the blast tools
    #: and the per-CPU subsystems (stats, guard caches, trace rings).
    cpus: int = 1
    #: Rotates the round-robin scheduler's starting CPU (determinism
    #: experiments; 0 reproduces the unsharded global order exactly).
    smp_seed: int = 0
    #: vblk I/O queue pairs (NVMe-style, 1..4): "auto" = one per CPU
    #: (capped at the device's 4 blocks), an int pins the count.  1 keeps
    #: the single-shared-queue behaviour.  Ignored for the e1000e stack.
    queues: Union[int, str] = 1


class CaratKopSystem:
    """The assembled testbed.

    ``stacks`` holds the device stacks in the order they were built and
    ``stack`` is the first.  Each stack's driver (``driver``, the loaded
    module, and ``driver_compiled``) and glue objects (``device``, and
    ``sink``/``netdev``/``socket``/``blaster`` or ``blkdev``/
    ``blkqueue``/``blkblaster``) are reachable directly on the system,
    from the first stack that has them.
    """

    def __init__(self, config: Optional[SystemConfig] = None, **kwargs):
        self.config = config or SystemConfig(**kwargs)
        if config is not None and kwargs:
            raise TypeError("pass either config or keyword overrides, not both")
        cfg = self.config
        names = (cfg.driver,) if isinstance(cfg.driver, str) else cfg.driver
        if not names or any(name not in STACKS for name in names):
            raise ValueError(f"unknown driver {cfg.driver!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"driver {cfg.driver!r} names a stack twice")
        index_name = "linear" if cfg.policy_index is None else cfg.policy_index
        index_cls = POLICY_INDEXES.get(index_name)
        if index_cls is None:
            raise ValueError(f"unknown policy index {cfg.policy_index!r}")
        machine = cfg.machine
        if isinstance(machine, str):
            machine = get_machine(machine)
        self.machine: Optional[MachineModel] = machine

        self.signing_key = SigningKey.generate()
        self.kernel = Kernel(
            machine=machine,
            signing_key=self.signing_key if cfg.strict_kernel else None,
            require_protected_modules=cfg.strict_kernel and cfg.protect,
            engine=cfg.engine,
            ncpus=cfg.cpus,
            smp_seed=cfg.smp_seed,
            verify_policy=cfg.verify_policy,
        )
        self.policy = CaratPolicyModule(
            self.kernel, index=index_cls(), mode=cfg.enforce_mode,
        ).install()
        self.policy_manager = PolicyManager(self.kernel)
        if cfg.regions == 2:
            self.policy_manager.install_two_region_policy()
        else:
            self.policy_manager.install_n_region_policy(cfg.regions)

        self.stacks: tuple = ()
        for name in names:
            stack = STACKS[name](self)
            self.stacks += (stack,)
            opts = CompileOptions(module_name=stack.name, protect=cfg.protect,
                                  opt_level=cfg.opt_level,
                                  key=self.signing_key)
            if cfg.protect and opts.verify_enabled():
                # -O3: prove guards against the live policy table (so the
                # digest/epoch the certificate captures are exactly what
                # insmod re-validates) under the driver's own trusted ABI
                # contracts, registered per driver so certifying one
                # stack never widens another's TCB.
                self.kernel.register_verify_contracts(
                    stack.contracts, module=stack.name
                )
                opts.verify_table = self.policy.index
                opts.contracts = stack.contracts
            stack.driver_compiled = compile_module(stack.source, opts)
            self.reload_driver(stack)
        self.stack = self.stacks[0]

    def __getattr__(self, name: str):
        # Only reached for attributes the system itself lacks: the
        # stacks' drivers and glue objects.
        for stack in self.__dict__.get("stacks", ()):
            if hasattr(stack, name):
                return getattr(stack, name)
        raise AttributeError(name)

    # -- convenience --------------------------------------------------------

    @property
    def technique(self) -> str:
        return "carat" if self.config.protect else "baseline"

    def blast(self, size: int = 128, count: int = 1000,
              capture_latency: bool = False):
        """Run one pktblast trial on the live e1000e system."""
        return self.blaster.blast(size, count, capture_latency)

    def blkblast(self, count: int = 100, nsect: int = 2,
                 pattern: str = "seq", seed: int = 1,
                 read_frac: int = 50, flush_interval: int = 16,
                 capture_latency: bool = False):
        """Run one blkblast trial on the live vblk system."""
        return self.blkblaster.blast(
            count, nsect=nsect, pattern=pattern, seed=seed,
            read_frac=read_frac, flush_interval=flush_interval,
            capture_latency=capture_latency,
        )

    def guard_stats(self) -> dict[str, int]:
        stats = self.policy.stats.as_dict()
        # This system's traffic against the process-global translation
        # code cache (0 under the interpreter, which never translates).
        # Cache warmth depends on what ran earlier in the process, so
        # cross-system comparisons strip the ``translation_`` keys.
        vm = self.kernel.vm
        stats["translation_cache_hits"] = vm.translation_cache_hits
        stats["translation_cache_misses"] = vm.translation_cache_misses
        stats["guards_proven"] = sum(
            stack.driver_compiled.guards_proven for stack in self.stacks)
        stats["guards_elided"] = sum(
            len(stack.driver.elided_guards) for stack in self.stacks)
        stats["verify_demotions"] = self.kernel.verify_demotions
        return stats

    def reload_driver(self, stack=None) -> LoadedModule:
        """Insert ``stack``'s driver (default: the first stack's) and
        probe its glue on top of it.  Also the recovery half of a
        violation->eject->re-insmod cycle; the caller must lift the
        quarantine first (``policy_manager.unquarantine``)."""
        stack = stack or self.stack
        stack.driver = self.kernel.insmod(stack.driver_compiled)
        stack.probe(stack.driver)
        return stack.driver

    def teardown(self) -> None:
        for stack in reversed(self.stacks):
            stack.teardown()
            self.kernel.rmmod(stack.name)
        self.policy.uninstall()


__all__ = ["CaratKopSystem", "SystemConfig"]

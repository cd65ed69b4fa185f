"""CaratKopSystem: one-call assembly of the whole testbed.

Boots the kernel on a chosen machine model, installs the policy module,
compiles the chosen device stack's driver (baseline or protected),
inserts it, and probes the stack's glue on top — for the e1000e stack a
NIC against a packet sink plus a raw socket and blaster, for the vblk
stack a block disk plus a request queue and blkblast — the complete
Figure 1 picture plus the §4 testbed, ready for experiments.  What
differs between the stacks lives in :mod:`repro.core.stacks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..kernel import Kernel
from ..kernel.module_loader import CompiledModule, LoadedModule
from ..policy import CaratPolicyModule, PolicyManager, RegionTable
from ..signing import SigningKey
from ..vm.machine import MachineModel, get_machine
from .pipeline import CompileOptions, compile_module
from .stacks import STACKS


@dataclass
class SystemConfig:
    """Everything the experiments vary."""

    #: "r415", "r350", a MachineModel, or None for untimed functional runs.
    machine: Union[str, MachineModel, None] = "r350"
    #: Which guarded device stack to assemble: "e1000e" (NIC + pktblast,
    #: the paper's testbed) or "vblk" (virtio-style block + blkblast).
    driver: str = "e1000e"
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
    #: Policy index structure: a region-table instance, or a structure
    #: name from ``repro.policy.structures.STRUCTURES`` ("linear",
    #: "interval", ...).  None means the paper's linear table.
    policy_index: Optional[object] = None
    #: Number of regions for the standard policy (Figure 5 varies this).
    regions: int = 2
    #: Enforcement mode: "audit", "panic" (the paper behaviour), "eject",
    #: or "isolate".
    enforce_mode: str = "panic"
    #: Require signatures + protection at insmod.
    strict_kernel: bool = False
    ram_size: int = 64 << 20
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

    The stack's glue objects (``device``, and ``sink``/``netdev``/
    ``socket``/``blaster`` or ``blkdev``/``blkqueue``/``blkblaster``)
    are reachable directly on the system.
    """

    def __init__(self, config: Optional[SystemConfig] = None, **kwargs):
        self.config = config or SystemConfig(**kwargs)
        if config is not None and kwargs:
            raise TypeError("pass either config or keyword overrides, not both")
        cfg = self.config
        stack_cls = STACKS.get(cfg.driver)
        if stack_cls is None:
            raise ValueError(f"unknown driver {cfg.driver!r}")
        machine = cfg.machine
        if isinstance(machine, str):
            machine = get_machine(machine)
        self.machine: Optional[MachineModel] = machine

        self.signing_key = SigningKey.generate()
        self.kernel = Kernel(
            ram_size=cfg.ram_size,
            machine=machine,
            signing_key=self.signing_key if cfg.strict_kernel else None,
            require_protected_modules=cfg.strict_kernel and cfg.protect,
            engine=cfg.engine,
            ncpus=cfg.cpus,
            smp_seed=cfg.smp_seed,
            verify_policy=cfg.verify_policy,
        )
        index = cfg.policy_index if cfg.policy_index is not None else RegionTable()
        if isinstance(index, str):
            from ..policy import make_index

            index = make_index(index)
        self.policy = CaratPolicyModule(
            self.kernel, index=index, mode=cfg.enforce_mode,
        ).install()
        self.policy_manager = PolicyManager(self.kernel)
        if cfg.regions == 2:
            self.policy_manager.install_two_region_policy()
        else:
            self.policy_manager.install_n_region_policy(cfg.regions)

        self.stack = stack = stack_cls(self)
        compile_opts = CompileOptions(
            module_name=stack.name,
            protect=cfg.protect,
            opt_level=cfg.opt_level,
            key=self.signing_key,
        )
        if cfg.protect and compile_opts.verify_enabled():
            # -O3: prove guards against the live policy table (installed
            # above, so the digest/epoch the certificate captures are
            # exactly what insmod re-validates) under the driver's own
            # trusted ABI contracts, registered per-driver so certifying
            # one stack never widens the other's TCB.
            self.kernel.register_verify_contracts(
                stack.contracts, module=stack.name
            )
            compile_opts.verify_table = self.policy.index
            compile_opts.contracts = stack.contracts
        self.driver_compiled: CompiledModule = compile_module(
            stack.source, compile_opts,
        )
        self.reload_driver()

    def __getattr__(self, name: str):
        # Only reached for attributes the system itself lacks: the
        # stack's glue objects.
        stack = self.__dict__.get("stack")
        if stack is None:
            raise AttributeError(name)
        return getattr(stack, name)

    # -- convenience --------------------------------------------------------

    @property
    def technique(self) -> str:
        return "carat" if self.config.protect else "baseline"

    def blast(self, size: int = 128, count: int = 1000,
              capture_latency: bool = False):
        """Run one pktblast trial on the live e1000e system."""
        return self.stack.blaster.blast(size, count, capture_latency)

    def blkblast(self, count: int = 100, nsect: int = 2,
                 pattern: str = "seq", seed: int = 1,
                 read_frac: int = 50, flush_interval: int = 16,
                 capture_latency: bool = False):
        """Run one blkblast trial on the live vblk system."""
        return self.stack.blkblaster.blast(
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
        stats["translation_cache_hits"] = getattr(
            vm, "translation_cache_hits", 0)
        stats["translation_cache_misses"] = getattr(
            vm, "translation_cache_misses", 0)
        stats["guards_proven"] = self.driver_compiled.guards_proven
        stats["guards_elided"] = len(self.driver.elided_guards)
        stats["verify_demotions"] = self.kernel.verify_demotions
        return stats

    def reload_driver(self) -> LoadedModule:
        """Insert the driver and probe the stack's glue on top of it.
        Also the recovery half of a violation->eject->re-insmod cycle;
        the caller must lift the quarantine first
        (``policy_manager.unquarantine``)."""
        self.driver: LoadedModule = self.kernel.insmod(self.driver_compiled)
        self.stack.probe(self.driver)
        return self.driver

    def teardown(self) -> None:
        self.stack.teardown()
        self.kernel.rmmod(self.stack.name)
        self.policy.uninstall()


__all__ = ["CaratKopSystem", "SystemConfig"]

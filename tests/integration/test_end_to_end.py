"""End-to-end scenarios: the paper's claims exercised through the full
stack (compiler → signing → loader → VM → policy → device → sink)."""

import pytest

from repro import (
    CaratKopSystem,
    CompileOptions,
    KernelPanic,
    LoadError,
    SystemConfig,
    compile_module,
)
from repro.kernel import layout
from repro.net import make_test_frame


class TestPaperStory:
    def test_protected_driver_full_path(self):
        """The §4 experiment end to end on the simulated R350."""
        system = CaratKopSystem(SystemConfig(machine="r350", protect=True,
                                             strict_kernel=True))
        result = system.blast(size=128, count=500)
        assert result.errors == 0
        assert system.sink.packets == 500
        stats = system.guard_stats()
        assert stats["checks"] > 5_000
        assert stats["denied"] == 0
        # Every wire frame is intact (DMA read the right bytes).
        assert system.sink.recent[-1] == make_test_frame(128, 499).encode()

    def test_two_region_policy_is_exactly_the_papers(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        regions = system.policy.index.regions()
        assert len(regions) == 2
        # "kernel addresses (the 'high half') are allowed, but user
        # addresses (the 'low half') are disallowed" (§4.2 fn 5)
        assert regions[0].base == layout.KERNEL_SPACE_START
        assert regions[0].permits(0x3)
        assert regions[1].base == 0
        assert regions[1].prot == 0

    def test_rogue_module_cannot_touch_user_half(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        rogue = compile_module(
            "__export long peek(long a) { return *(long *)a; }",
            CompileOptions(module_name="rogue", key=system.signing_key),
        )
        loaded = system.kernel.insmod(rogue)
        with pytest.raises(KernelPanic, match="CARAT KOP: forbidden R"):
            system.kernel.run_function(loaded, "peek", [0x4000_0000])
        assert system.kernel.panicked is not None

    def test_same_rogue_module_unprotected_reads_freely(self):
        # Make the user-half address actually mapped so the contrast is
        # "policy stops it" vs "nothing stops it".
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        kernel = system.kernel
        target = kernel.kmalloc_allocator.kmalloc(64)
        kernel.address_space.write_int(target, 8, 0x5EC12E7)
        rogue = compile_module(
            "__export long peek(long a) { return *(long *)a; }",
            CompileOptions(module_name="rogue2", protect=False),
        )
        loaded = kernel.insmod(rogue)
        assert kernel.run_function(loaded, "peek", [target]) == 0x5EC12E7

    def test_guard_failure_is_one_of_three_causes(self):
        """§3.1: wrong policy / bug / attack all hard-stop identically."""
        system = CaratKopSystem(SystemConfig(machine=None))
        # "wrong policy": deny the module its own ring memory.
        system.policy_manager.clear()
        system.policy_manager.set_default(False)
        with pytest.raises(KernelPanic):
            system.blast(size=128, count=1)

    def test_driver_survives_policy_tightening_that_still_covers_it(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        mgr = system.policy_manager
        mgr.clear()
        # Precise allow-list instead of the whole high half: module area,
        # direct map (ring + skbs), vmalloc/ioremap window, kernel stack.
        mgr.allow(layout.MODULE_AREA_BASE, layout.MODULE_AREA_SIZE)
        mgr.allow(layout.DIRECT_MAP_BASE, 64 << 20)
        mgr.allow(layout.VMALLOC_BASE, layout.VMALLOC_SIZE)
        mgr.allow(layout.KSTACK_BASE, layout.KSTACK_SIZE)
        mgr.set_default(False)
        result = system.blast(size=128, count=100)
        assert result.errors == 0
        assert system.guard_stats()["denied"] == 0


class TestModuleInterposition:
    def test_module_to_module_calls_cross_guard_domains(self, key):
        """A protected module calling an exported symbol of another
        protected module: both sides' accesses are guarded."""
        system = CaratKopSystem(SystemConfig(machine=None))
        kernel = system.kernel
        provider = compile_module(
            """
            long storage[4];
            __export long stash(long i, long v) { storage[i] = v; return v; }
            """,
            CompileOptions(module_name="provider", key=system.signing_key),
        )
        consumer = compile_module(
            """
            extern long stash(long i, long v);
            __export long relay(long v) { return stash(1, v) + 1; }
            """,
            CompileOptions(module_name="consumer", key=system.signing_key),
        )
        kernel.insmod(provider)
        loaded = kernel.insmod(consumer)
        checks_before = system.guard_stats()["checks"]
        assert kernel.run_function(loaded, "relay", [5]) == 6
        assert system.guard_stats()["checks"] > checks_before

    def test_rmmod_order_enforced(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        kernel = system.kernel
        provider = compile_module(
            "__export long give(void) { return 9; }",
            CompileOptions(module_name="prov", key=system.signing_key),
        )
        consumer = compile_module(
            "extern long give(void); __export long take(void) { return give(); }",
            CompileOptions(module_name="cons", key=system.signing_key),
        )
        kernel.insmod(provider)
        kernel.insmod(consumer)
        with pytest.raises(LoadError, match="in use"):
            kernel.rmmod("prov")
        kernel.rmmod("cons")
        kernel.rmmod("prov")


class TestUnloadHazard:
    def test_panic_rather_than_unload_rationale(self):
        """§3.1's deadlock story: a module that takes a lock and is then
        ejected leaves the lock held forever.  We model the lock as kernel
        state and show why 'just unload it' is unsafe — the panic path is
        the one CARAT KOP takes."""
        system = CaratKopSystem(SystemConfig(machine=None))
        kernel = system.kernel
        locker = compile_module(
            """
            extern void *kmalloc(long size, int flags);
            long lock_word;
            __export long grab_lock_then_fault(long bad_addr) {
                lock_word = 1;                 /* take the 'global lock' */
                long v = *(long *)bad_addr;    /* guard fires here      */
                lock_word = 0;                 /* never reached         */
                return v;
            }
            __export long lock_state(void) { return lock_word; }
            """,
            CompileOptions(module_name="locker", key=system.signing_key),
        )
        loaded = kernel.insmod(locker)
        with pytest.raises(KernelPanic):
            kernel.run_function(loaded, "grab_lock_then_fault", [0x1000])
        # The lock is still held: unloading now would deadlock the system.
        assert kernel.run_function(loaded, "lock_state", []) == 1
        # CARAT KOP's answer: the machine is already halted.
        assert kernel.panicked is not None


class TestExamplesRun:
    """The shipped examples must stay runnable (they are documentation)."""

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "buggy_driver_firewall.py",
            "file_ipc_protection.py",
            "privileged_intrinsics.py",
            "policy_mining.py",
            "heartbeat_module.py",
        ],
    )
    def test_example_executes(self, script):
        import pathlib
        import subprocess
        import sys

        path = pathlib.Path(__file__).resolve().parents[2] / "examples" / script
        proc = subprocess.run(
            [sys.executable, str(path)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "should not happen" not in proc.stdout

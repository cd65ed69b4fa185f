"""Graceful enforcement end-to-end: eject, rollback, quarantine, isolate.

The paper's enforcement is a panic (§3.1); §5 names "cleanly handle
forbidden accesses" as future work.  These tests exercise that subsystem:
a violating module is ejected mid-call, every journaled side effect is
rolled back, its signature is quarantined, and the rest of the machine —
including the guarded driver under live traffic — keeps running.
"""

import struct

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.faults import run_soak
from repro.faults.soak import ATTACK_ADDR, HOSTILE_MODULE, HOSTILE_NAME
from repro.kernel import IoctlError, KernelPanic, LoadError

EFAULT = 14
EACCES = 13


def _system(mode):
    return CaratKopSystem(SystemConfig(machine=None, protect=True,
                                       enforce_mode=mode))


def _hostile(system):
    compiled = compile_module(HOSTILE_MODULE, CompileOptions(
        module_name=HOSTILE_NAME, key=system.signing_key))
    return compiled, system.kernel.insmod(compiled)


class TestEject:
    def test_rollback_is_complete(self):
        system = _system("eject")
        kernel = system.kernel
        alloc_base = kernel.kmalloc_allocator.snapshot()
        irq_base = len(kernel.irq._actions)
        timer_base = kernel.timers.pending()
        sym_base = len(kernel.symbols)

        _, loaded = _hostile(system)
        assert kernel.journal.depth(HOSTILE_NAME) >= 4

        rc = kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        assert rc == -EFAULT
        assert loaded.ejected
        assert HOSTILE_NAME not in kernel.lsmod()
        assert kernel.panicked is None

        assert kernel.kmalloc_allocator.snapshot() == alloc_base
        assert len(kernel.irq._actions) == irq_base
        assert kernel.timers.pending() == timer_base
        assert len(kernel.symbols) == sym_base
        assert kernel.journal.depth(HOSTILE_NAME) == 0

        summary = kernel.journal.rollbacks[-1]
        assert summary["module"] == HOSTILE_NAME
        assert summary["kmalloc_allocations"] == 2
        assert summary["kmalloc_bytes"] == 256 + 1024
        assert summary["irqs"] == 1
        assert summary["timers"] == 1
        assert summary["symbols"] == 4

    def test_machine_survives_and_moves_packets(self):
        system = _system("eject")
        _, loaded = _hostile(system)
        system.kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        assert system.kernel.lsmod() == ["e1000e"]
        result = system.blast(size=128, count=25)
        assert result.errors == 0
        assert system.sink.packets == 25

    def test_dmesg_narrates_the_ejection(self):
        system = _system("eject")
        _, loaded = _hostile(system)
        system.kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        log = "\n".join(system.kernel.dmesg_log)
        assert f"violation fault in {HOSTILE_NAME}" in log
        assert "ejected" in log
        assert "quarantined" in log

    def test_stale_handle_is_refused(self):
        system = _system("eject")
        _, loaded = _hostile(system)
        system.kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        refusals = system.kernel.entry_refusals
        assert system.kernel.run_function(loaded, "hostile_ticks", []) == -EACCES
        assert system.kernel.entry_refusals == refusals + 1

    def test_per_module_override_ejects_under_global_panic(self):
        system = _system("panic")  # the global default
        system.policy.set_module_mode(HOSTILE_NAME, "eject")
        _, loaded = _hostile(system)
        rc = system.kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        assert rc == -EFAULT
        assert loaded.ejected
        assert system.kernel.panicked is None


class TestQuarantine:
    def test_reinsmod_blocked_until_lifted(self):
        system = _system("eject")
        compiled, loaded = _hostile(system)
        system.kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        with pytest.raises(LoadError, match="quarantined"):
            system.kernel.insmod(compiled)
        assert system.policy_manager.unquarantine(HOSTILE_NAME)
        again = system.kernel.insmod(compiled)
        assert HOSTILE_NAME in system.kernel.lsmod()
        assert not again.ejected

    def test_unquarantine_of_clean_name_reports_false(self):
        system = _system("eject")
        assert not system.policy_manager.unquarantine("nothing")

    def test_other_modules_unaffected(self):
        system = _system("eject")
        compiled, loaded = _hostile(system)
        system.kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        bystander = compile_module(
            "__export long f(void) { return 1; }",
            CompileOptions(module_name="bystander", key=system.signing_key))
        loaded_b = system.kernel.insmod(bystander)
        assert system.kernel.run_function(loaded_b, "f", []) == 1


class TestIsolate:
    def test_isolation_semantics(self):
        system = _system("isolate")
        kernel = system.kernel
        irq_base = len(kernel.irq._actions)
        timer_base = kernel.timers.pending()
        _, loaded = _hostile(system)

        rc = kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        assert rc == -EFAULT
        # Isolated, not ejected: still resident, but fenced off.
        assert HOSTILE_NAME in kernel.lsmod()
        assert not loaded.ejected
        assert kernel.isolated_modules() == [HOSTILE_NAME]
        assert kernel.run_function(loaded, "hostile_ticks", []) == -EACCES
        # Its interrupt sources are quiesced immediately.
        assert len(kernel.irq._actions) == irq_base
        assert kernel.timers.pending() == timer_base

    def test_rmmod_of_isolated_ejects_without_quarantine(self):
        system = _system("isolate")
        kernel = system.kernel
        compiled, loaded = _hostile(system)
        kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        kernel.rmmod(HOSTILE_NAME)
        assert HOSTILE_NAME not in kernel.lsmod()
        assert kernel.journal.depth(HOSTILE_NAME) == 0
        # An operator rmmod is not a conviction: re-insmod is allowed.
        kernel.insmod(compiled)
        assert HOSTILE_NAME in kernel.lsmod()


class TestDeferredEject:
    SRC = """
    extern void *kmalloc(long size, int flags);
    extern int request_irq(int line, char *handler);
    extern int kick(int line);

    long *stash;
    long trace;

    __export void evil_isr(long line) {
        long *p = (long *)4096;
        *p = 1;
    }

    int init_module(void) {
        stash = (long *)kmalloc(64, 0);
        if (stash == null) { return -1; }
        trace = 0;
        if (request_irq(41, "evil_isr") != 0) { return -1; }
        return 0;
    }

    __export long trigger(void) {
        trace = 1;
        kick(41);
        trace = 2;
        return trace;
    }
    """

    def test_fault_in_nested_entry_defers_until_unwind(self):
        """An ISR (nested kernel->module entry) that violates policy must
        not rip the module out from under the interrupted outer call; the
        eject is parked and runs when the outermost call unwinds."""
        system = _system("eject")
        kernel = system.kernel
        kernel.symbols.export_native(
            "kick", lambda ctx, line: int(kernel.irq.raise_irq(int(line))))
        alloc_base = kernel.kmalloc_allocator.snapshot()
        compiled = compile_module(self.SRC, CompileOptions(
            module_name="nested", key=system.signing_key))
        loaded = kernel.insmod(compiled)

        rc = kernel.run_function(loaded, "trigger", [])
        # The interrupted outer call ran to completion (trace reached 2):
        # the ejection waited for the stack to unwind.
        assert rc == 2
        assert loaded.ejected
        assert "nested" not in kernel.lsmod()
        assert kernel.panicked is None
        assert kernel.kmalloc_allocator.snapshot() == alloc_base
        log = "\n".join(kernel.dmesg_log)
        assert "deferred" in log


class TestAuditAndPanic:
    def test_audit_counts_but_does_not_raise(self):
        system = _system("audit")
        kernel = system.kernel
        victim = kernel.kmalloc_allocator.kmalloc(64)
        kernel.address_space.write_bytes(victim, b"SAFE")
        mgr = system.policy_manager
        mgr.clear()
        mgr.deny(victim, 64)
        mgr.allow(0xFFFF_8000_0000_0000, (1 << 64) - 0xFFFF_8000_0000_0000)
        mgr.set_default(False)
        smasher = compile_module(
            "__export void f(long a) { *(long *)a = 0; }",
            CompileOptions(module_name="smasher", key=system.signing_key))
        loaded = kernel.insmod(smasher)
        kernel.run_function(loaded, "f", [victim])
        # Audit mode: the access went through, got counted, nothing died.
        assert kernel.address_space.read_bytes(victim, 4) != b"SAFE"
        assert system.policy.violations["smasher"] == 1
        assert "smasher" in kernel.lsmod()
        assert kernel.panicked is None

    def test_panic_mode_is_the_paper_behaviour(self):
        system = _system("panic")  # the default
        _, loaded = _hostile(system)
        with pytest.raises(KernelPanic):
            system.kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        assert system.kernel.panicked is not None
        # No graceful machinery fired: the module was not ejected.
        assert HOSTILE_NAME in system.kernel.lsmod()
        assert not loaded.ejected
        log = "\n".join(system.kernel.dmesg_log)
        assert "DENY" in log


class TestChardevRollback:
    SRC = """
    extern int register_chrdev(char *path, char *handler);
    __export long handler(long cmd, void *buf, long len) {
        return cmd * 2;
    }
    int init_module(void) {
        return register_chrdev("/dev/gadget", "handler");
    }
    __export long attack(long addr) { *(long *)addr = 1; return 0; }
    """

    def test_registered_device_works_then_rolls_back(self):
        system = _system("eject")
        kernel = system.kernel
        compiled = compile_module(self.SRC, CompileOptions(
            module_name="gadget", key=system.signing_key))
        loaded = kernel.insmod(compiled)
        out = kernel.devices.ioctl("/dev/gadget", 21)
        assert struct.unpack("<q", out)[0] == 42
        assert kernel.journal.depth_by_kind("gadget")["chardev"] == 1

        kernel.run_function(loaded, "attack", [ATTACK_ADDR])
        assert kernel.journal.rollbacks[-1]["chardevs"] == 1
        with pytest.raises(IoctlError) as ei:
            kernel.devices.ioctl("/dev/gadget", 21)
        assert ei.value.errno == 2  # ENOENT: the node is gone


class TestSoakAcceptance:
    def test_fifty_cycles_zero_leaks(self):
        report = run_soak(cycles=50, machine=None, blast_count=10)
        assert report["cycles_completed"] == 50
        assert report["ejections"] == 50
        assert report["leaked_bytes_total"] == 0
        assert report["delivered_frames"] == 50 * 10
        assert all(c["leaked_bytes"] == 0 for c in report["per_cycle"])

    def test_both_engines_complete_the_soak(self):
        a = run_soak(cycles=5, machine=None, engine="interp", blast_count=5)
        b = run_soak(cycles=5, machine=None, engine="compiled", blast_count=5)
        assert a["cycles_completed"] == b["cycles_completed"] == 5
        assert a["leaked_bytes_total"] == b["leaked_bytes_total"] == 0

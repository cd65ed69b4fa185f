"""Policy module + manager tests: the /dev/carat ioctl protocol, guard
enforcement, stats, swap-ability (paper §3.1-3.2, Figure 1)."""

import struct

import pytest

from repro import abi
from repro.kernel import IoctlError, Kernel
from repro.kernel.chardev import EINVAL, ENOSPC, ENOTTY, EPERM
from repro.policy import CaratPolicyModule, PolicyManager, Region
from repro.policy import module as pm
from repro.vm.interp import GuardViolation

RW = abi.FLAG_READ | abi.FLAG_WRITE


@pytest.fixture()
def system(kernel):
    policy = CaratPolicyModule(kernel).install()
    return kernel, policy, PolicyManager(kernel)


class TestIoctlProtocol:
    def test_add_region_returns_index(self, system):
        _, _, mgr = system
        assert mgr.add_region(0x1000, 0x100, RW) == 0
        assert mgr.add_region(0x2000, 0x100, RW) == 1
        assert mgr.count() == 2

    def test_get_region_roundtrip(self, system):
        _, _, mgr = system
        mgr.add_region(0x1000, 0x100, abi.FLAG_READ)
        r = mgr.get_region(0)
        assert r == Region(0x1000, 0x100, abi.FLAG_READ)

    def test_remove_region(self, system):
        _, _, mgr = system
        mgr.add_region(0x1000, 0x100, RW)
        assert mgr.remove_region(0x1000, 0x100) is True
        assert mgr.remove_region(0x1000, 0x100) is False
        assert mgr.count() == 0

    def test_clear_and_default(self, system):
        kernel, policy, mgr = system
        mgr.add_region(0x1000, 0x100, RW)
        mgr.clear()
        assert mgr.count() == 0
        mgr.set_default(True)
        assert policy.index.default_allow is True
        mgr.set_default(False)
        assert policy.index.default_allow is False

    def test_non_root_rejected(self, system):
        kernel, _, _ = system
        outsider = PolicyManager(kernel, uid=1000)
        with pytest.raises(IoctlError) as e:
            outsider.add_region(0x1000, 0x100, RW)
        assert e.value.errno == EPERM

    def test_bad_payload_size(self, system):
        kernel, _, _ = system
        with pytest.raises(IoctlError) as e:
            kernel.devices.ioctl(pm.DEVICE_PATH, pm.CMD_ADD_REGION, b"xx", uid=0)
        assert e.value.errno == EINVAL

    def test_unknown_command(self, system):
        kernel, _, _ = system
        with pytest.raises(IoctlError) as e:
            kernel.devices.ioctl(pm.DEVICE_PATH, 0xBADC0DE, b"", uid=0)
        assert e.value.errno == ENOTTY

    def test_retired_enforce_command_is_unknown(self, system):
        kernel, policy, _ = system
        with pytest.raises(IoctlError) as e:
            kernel.devices.ioctl(pm.DEVICE_PATH, 0xC0DE0008,
                                 struct.pack("<I", 0), uid=0)
        assert e.value.errno == ENOTTY
        assert policy.mode == "panic"

    def test_table_full_errno(self, system):
        _, _, mgr = system
        for i in range(64):
            mgr.add_region(0x100000 + i * 0x1000, 0x100, RW)
        with pytest.raises(IoctlError) as e:
            mgr.add_region(0xFF000000, 0x100, RW)
        assert e.value.errno == ENOSPC

    def test_invalid_region_errno(self, system):
        _, _, mgr = system
        with pytest.raises(IoctlError) as e:
            mgr.add_region(0x1000, 0, RW)
        assert e.value.errno == EINVAL

    def test_get_region_out_of_range(self, system):
        _, _, mgr = system
        with pytest.raises(IoctlError):
            mgr.get_region(5)

    def test_stats_payload(self, system):
        kernel, policy, mgr = system
        mgr.add_region(0x1000, 0x100, RW)
        policy._guard(None, 0x1000, 8, abi.FLAG_READ, "m")
        stats = mgr.stats()
        assert stats["checks"] == 1
        assert stats["allowed"] == 1
        assert stats["regions"] == 1

    def test_double_install_rejected(self, system):
        kernel, policy, _ = system
        with pytest.raises(RuntimeError):
            policy.install()


class TestGuardEnforcement:
    def test_allowed_access_returns_scan_count(self, system):
        _, policy, mgr = system
        mgr.add_region(0x1000, 0x1000, RW)
        assert policy._guard(None, 0x1500, 8, abi.FLAG_WRITE, "m") == 1

    def test_denied_access_panics_and_logs(self, system):
        kernel, policy, mgr = system
        mgr.set_default(False)
        with pytest.raises(GuardViolation) as e:
            policy._guard(None, 0xBAD0, 8, abi.FLAG_WRITE, "evil_mod")
        assert e.value.addr == 0xBAD0
        assert kernel.panicked is not None
        assert any("DENY module=evil_mod" in l for l in kernel.dmesg_log)
        assert any("Kernel panic" in l for l in kernel.dmesg_log)

    def test_audit_mode_logs_without_panic(self, kernel):
        policy = CaratPolicyModule(kernel, mode="audit").install()
        policy._guard(None, 0xBAD0, 8, abi.FLAG_READ, "m")
        assert kernel.panicked is None
        assert any("DENY" in l for l in kernel.dmesg_log)
        assert policy.stats.denied == 1

    def test_mode_toggle_via_ioctl(self, system):
        kernel, policy, mgr = system
        mgr.set_mode("audit")
        policy._guard(None, 0xBAD0, 8, abi.FLAG_READ, "m")
        mgr.set_mode("panic")
        with pytest.raises(GuardViolation):
            policy._guard(None, 0xBAD0, 8, abi.FLAG_READ, "m")

    def test_stats_track_scans(self, system):
        _, policy, mgr = system
        for i in range(8):
            mgr.add_region(0x100000 + i * 0x10000, 0x1000, RW)
        policy._guard(None, 0x100000 + 7 * 0x10000, 8, abi.FLAG_READ, "m")
        assert policy.stats.entries_scanned == 8


class TestIntrinsicPolicy:
    def test_intrinsic_allow_deny(self, system):
        kernel, policy, mgr = system
        mgr.allow_intrinsic("wrmsr")
        # Name string must live in kernel memory for the guard to read.
        addr = kernel.kmalloc_allocator.kmalloc(16)
        kernel.address_space.write_bytes(addr, b"wrmsr\x00")
        assert policy._intrinsic_guard(None, addr) == 1
        mgr.deny_intrinsic("wrmsr")
        with pytest.raises(GuardViolation):
            policy._intrinsic_guard(None, addr)
        assert policy.stats.intrinsic_denied == 1


class TestSwapability:
    def test_policy_module_swap_without_recompile(self, kernel, key):
        """§3.2: 'one guard function can be swapped for another without
        having to recompile the guarded module'."""
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.policy import IntervalRegionTable

        first = CaratPolicyModule(kernel).install()
        mgr = PolicyManager(kernel)
        mgr.install_two_region_policy()
        compiled = compile_module(
            "long g; __export long f(long v) { g = v; return g; }",
            CompileOptions(module_name="payload"),
        )
        loaded = kernel.insmod(compiled)
        assert kernel.run_function(loaded, "f", [5]) == 5
        checks_before = first.stats.checks
        assert checks_before > 0

        # Swap: uninstall the linear-table policy, install an
        # interval-index one.
        first.uninstall()
        second = CaratPolicyModule(
            kernel, index=IntervalRegionTable()
        ).install()
        mgr2 = PolicyManager(kernel)
        mgr2.install_two_region_policy()
        assert kernel.run_function(loaded, "f", [6]) == 6
        assert second.stats.checks > 0
        assert first.stats.checks == checks_before  # old module retired

    def test_uninstall_removes_device_and_symbol(self, kernel):
        policy = CaratPolicyModule(kernel).install()
        policy.uninstall()
        assert kernel.devices.get(pm.DEVICE_PATH) is None
        assert kernel.symbols.lookup(abi.GUARD_SYMBOL) is None
        policy.uninstall()  # idempotent


class TestManagerConvenience:
    def test_two_region_policy_shape(self, system):
        kernel, policy, mgr = system
        mgr.install_two_region_policy()
        assert mgr.count() == 2
        regions = policy.index.regions()
        from repro.kernel import layout

        assert regions[0].base == layout.KERNEL_SPACE_START
        assert regions[0].permits(RW)
        assert regions[1].base == 0 and regions[1].prot == 0

    def test_n_region_policy_scan_depth(self, system):
        kernel, policy, mgr = system
        mgr.install_n_region_policy(16)
        assert mgr.count() == 16
        # Kernel-half accesses scan past the decoys.
        _, scanned = policy.index.check(
            0xFFFF_8880_0000_1000, 8, abi.FLAG_READ
        )
        assert scanned == 15

    def test_n_region_policy_minimum(self, system):
        _, _, mgr = system
        with pytest.raises(ValueError):
            mgr.install_n_region_policy(1)

    def test_allow_deny_helpers(self, system):
        kernel, policy, mgr = system
        mgr.allow(0x1000, 0x100, write=False)
        mgr.deny(0x2000, 0x100)
        assert policy.index.check(0x1000, 4, abi.FLAG_READ)[0] is True
        assert policy.index.check(0x1000, 4, abi.FLAG_WRITE)[0] is False
        assert policy.index.check(0x2000, 4, abi.FLAG_READ)[0] is False

    def test_describe(self, system):
        _, _, mgr = system
        mgr.allow(0x1000, 0x100)
        assert "0x" in mgr.describe()

"""Failure injection and soak tests: the system under hostile conditions."""

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.kernel import KernelPanic, LoadError, MemoryFault
from repro.net import make_test_frame


class TestHostileModules:
    def _load(self, system, src, name):
        return system.kernel.insmod(
            compile_module(
                src, CompileOptions(module_name=name, key=system.signing_key)
            )
        )

    def test_null_pointer_write(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        loaded = self._load(
            system,
            "__export void f(void) { long *p = null; *p = 1; }",
            "nullw",
        )
        with pytest.raises(KernelPanic):
            system.kernel.run_function(loaded, "f", [])

    def test_descriptor_ring_tamper_blocked(self):
        """A second module that tries to rewrite the DRIVER's TX ring —
        cross-module containment at byte granularity."""
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        system.blast(size=128, count=2)
        # Find the ring: TDBAL readback through the driver.
        ring_phys = system.device.tdba
        from repro.kernel import layout

        ring_virt = layout.direct_map_address(ring_phys)
        # Tighten the policy: driver areas only, ring NOT writable by others.
        mgr = system.policy_manager
        mgr.clear()
        mgr.add_region(ring_virt, 4096, prot=0)  # hole: deny the ring
        mgr.allow(0xFFFF_8000_0000_0000, (1 << 64) - 0xFFFF_8000_0000_0000)
        mgr.set_default(False)
        tamper = self._load(
            system,
            "__export void f(long a) { long *p = (long *)a; *p = 0x4141; }",
            "tamper",
        )
        with pytest.raises(KernelPanic):
            system.kernel.run_function(tamper, "f", [ring_virt])

    def test_module_probing_for_policy_edges(self):
        """A module binary-searching the policy boundary dies on the first
        out-of-bounds touch; it cannot 'scan quietly'."""
        system = CaratKopSystem(SystemConfig(machine=None))
        probe = self._load(
            system,
            """
            __export long scan(long start, long step, int n) {
                long acc = 0;
                for (int i = 0; i < n; i++) {
                    long *p = (long *)(start + (long)i * step);
                    acc += *p;
                }
                return acc;
            }
            """,
            "prober",
        )
        from repro.kernel import layout

        base = layout.direct_map_address(0)
        with pytest.raises(KernelPanic):
            # Walks off the 64MB of RAM into unmapped/user space; the
            # policy row covering kernel-half lets RAM reads through, but
            # the first user-half dereference dies.
            system.kernel.run_function(
                probe, "scan", [0x7FFF_0000_0000, 8, 4]
            )
        assert system.policy.stats.denied == 1

    def test_guard_denial_is_before_the_access(self):
        """The guard fires BEFORE the store: the target byte is untouched
        even though the module 'executed' the store instruction's guard."""
        system = CaratKopSystem(SystemConfig(machine=None))
        kernel = system.kernel
        victim = kernel.kmalloc_allocator.kmalloc(64)
        kernel.address_space.write_bytes(victim, b"SAFE")
        mgr = system.policy_manager
        mgr.clear()
        mgr.deny(victim, 64)
        mgr.allow(0xFFFF_8000_0000_0000, (1 << 64) - 0xFFFF_8000_0000_0000)
        mgr.set_default(False)
        smasher = self._load(
            system,
            "__export void f(long a) { *(long *)a = 0; }",
            "smasher",
        )
        with pytest.raises(KernelPanic):
            kernel.run_function(smasher, "f", [victim])
        assert kernel.address_space.read_bytes(victim, 4) == b"SAFE"


class TestDeviceFailures:
    def test_xmit_with_tx_disabled_queues_but_does_not_send(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        from repro.e1000e import regs

        system.device.mmio_write(regs.TCTL, 4, 0)
        system.netdev.xmit(make_test_frame(128, 0))
        assert system.sink.packets == 0

    def test_device_reset_mid_traffic_recovers_via_reprobe(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        system.blast(size=128, count=5)
        from repro.e1000e import regs

        system.device.mmio_write(regs.CTRL, 4, regs.CTRL_RST)
        # Driver state is now stale (ring unprogrammed); re-probe restores.
        system.netdev.remove()
        system.netdev.probe()
        result = system.blast(size=128, count=5)
        assert result.errors == 0

    def test_audit_mode_survives_violations_during_traffic(self):
        """Enforce-off systems keep running and keep counting."""
        system = CaratKopSystem(SystemConfig(machine=None, enforce_mode="audit"))
        system.policy_manager.clear()
        system.policy_manager.set_default(False)  # everything violates
        result = system.blast(size=128, count=20)
        assert result.errors == 0
        assert system.sink.packets == 20
        assert system.policy.stats.denied > 100


class TestSoak:
    def test_policy_mutation_under_traffic(self):
        """Add/remove regions between bursts; traffic never breaks as long
        as coverage holds."""
        system = CaratKopSystem(SystemConfig(machine=None))
        mgr = system.policy_manager
        decoy_base = 0x3_0000_0000
        for round_ in range(8):
            mgr.add_region(decoy_base + round_ * 0x10000, 0x1000, 0x3)
            result = system.blast(size=128, count=25)
            assert result.errors == 0
            if round_ % 2:
                mgr.remove_region(decoy_base + round_ * 0x10000, 0x1000)
        assert system.sink.packets == 200
        assert system.guard_stats()["denied"] == 0

    def test_insmod_rmmod_churn(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        for i in range(12):
            compiled = compile_module(
                f"long g{i}; __export long f(long v) {{ g{i} = v; return v; }}",
                CompileOptions(module_name=f"churn{i}", key=system.signing_key),
            )
            loaded = system.kernel.insmod(compiled)
            assert system.kernel.run_function(loaded, "f", [i]) == i
            system.kernel.rmmod(f"churn{i}")
        assert system.kernel.lsmod() == ["e1000e"]

    def test_long_mixed_tx_rx_run(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        system.netdev.enable_interrupts()
        for seq in range(300):
            assert system.netdev.xmit(make_test_frame(64 + seq % 64, seq)) == 0
            if seq % 3 == 0:
                system.netdev.inject_rx(system.sink.last())
        stats = system.netdev.stats()
        assert stats["tx_packets"] == 300
        assert stats["rx_packets"] == 100
        assert system.guard_stats()["denied"] == 0

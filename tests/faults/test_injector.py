"""Fault-injection harness: deterministic schedules, scoped hooks."""

import pytest

from repro.core.system import CaratKopSystem, SystemConfig
from repro.e1000e import regs
from repro.faults import FaultInjector
from repro.faults.injector import KINDS


class TestSchedules:
    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(mmio_garble_period=-1)
        with pytest.raises(ValueError):
            FaultInjector(irq_drop_period=-3)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(TypeError):
            FaultInjector(dma_stall_cycles=10)

    def test_period_zero_never_faults(self):
        inj = FaultInjector()
        for _ in range(100):
            assert inj.mmio_garble(regs.GPTC) is None
            assert inj.dma_stall_cycles() == 0.0
            assert inj.vblk_completion_stall_cycles() == 0.0
            assert inj.vblk_cq_stall_cycles() == 0.0
            for kind in KINDS:
                assert inj.fires(kind) is False
        assert inj.report() == {
            "garbled_reads": 0, "stalled_frames": 0,
            "dropped_irqs": 0, "failed_xmits": 0,
            "dropped_publishes": 0, "stalled_publishes": 0,
            "corrupted_replicas": 0, "torn_batches": 0,
            "quota_race_storms": 0,
            "garbled_descriptors": 0, "stalled_completions": 0,
            "dropped_writebacks": 0,
            "dropped_doorbells": 0, "stalled_cqs": 0,
        }

    def test_every_nth_eligible_event_faults(self):
        inj = FaultInjector(irq_drop_period=3)
        pattern = [inj.fires("irq_drop", line=42) for _ in range(9)]
        assert pattern == [False, False, True] * 3
        assert inj.report()["dropped_irqs"] == 3

    def test_control_registers_never_garbled(self):
        inj = FaultInjector(mmio_garble_period=1)  # garble EVERY eligible read
        for off in (regs.CTRL, regs.STATUS, regs.TCTL, regs.RCTL,
                    regs.TDT, regs.RDT, regs.ICR, regs.IMS):
            assert inj.mmio_garble(off) is None
        # ...while telemetry counters garble on schedule.
        assert inj.mmio_garble(regs.GPTC) == 0xFFFFFFFF
        assert inj.mmio_garble(regs.TOTL) == 0xFFFFFFFF
        assert inj.report()["garbled_reads"] == 2


class TestWiring:
    def test_attach_detach_identity(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        mine = FaultInjector().attach(system)
        other = FaultInjector()
        other.detach(system)  # not the attached one: must not unhook mine
        hosts = (system.device, system.netdev, system.kernel.irq,
                 system.policy.controlplane)
        assert all(host.fault_injector is mine for host in hosts)
        mine.detach(system)
        assert all(host.fault_injector is None for host in hosts)

    def test_reprobed_netdev_stays_wired(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        inj = FaultInjector(xmit_fail_period=1).attach(system)
        system.stack.teardown()
        system.kernel.rmmod(system.stack.name)
        system.reload_driver()
        assert system.netdev.fault_injector is inj
        assert system.blast(size=128, count=2).errors == 2

    def test_attach_wires_the_block_stack(self):
        system = CaratKopSystem(SystemConfig(machine=None, driver="vblk"))
        inj = FaultInjector().attach(system)
        hosts = (system.device, system.kernel.irq, system.policy.controlplane)
        assert all(host.fault_injector is inj for host in hosts)
        inj.detach(system)
        assert all(host.fault_injector is None for host in hosts)

    def test_unattached_system_pays_nothing(self):
        system = CaratKopSystem(SystemConfig(machine=None))
        assert system.device.fault_injector is None
        result = system.blast(size=128, count=10)
        assert result.errors == 0 and result.stalls == 0


class TestUnderTraffic:
    def _blast(self):
        system = CaratKopSystem(SystemConfig(machine="r350"))
        inj = FaultInjector(
            mmio_garble_period=5, dma_stall_period=4, irq_drop_period=3,
            xmit_fail_period=6,
        ).attach(system)
        system.socket.max_retries = 3
        system.netdev.enable_interrupts()
        result = system.blast(size=128, count=100)
        return inj.report(), result, system.sink.packets

    def test_identical_runs_are_identical(self):
        a = self._blast()
        b = self._blast()
        assert a == b

    def test_transients_are_retried_not_lost(self):
        report, result, delivered = self._blast()
        assert report["failed_xmits"] > 0
        assert result.stalls >= report["failed_xmits"]
        assert result.errors == 0
        assert delivered == 100

    def test_dma_stalls_slow_the_wire(self):
        def wire_busy_until(period):
            system = CaratKopSystem(SystemConfig(machine="r350"))
            if period:
                FaultInjector(dma_stall_period=period).attach(system)
            system.blast(size=128, count=50)
            return system.device._wire_free_at

        # Stalled frames drain later: the wire stays busy past the clean
        # run's completion time (the mechanism behind ring-full storms).
        assert wire_busy_until(2) > wire_busy_until(0)
